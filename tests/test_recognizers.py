import itertools
import random

import pytest

from blockerlab.catalogue import graph_catalogue, random_graph
from blockerlab.errors import CertificateError
from blockerlab.graph import (
    Graph,
    complete_graph,
    contains_induced,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from blockerlab.recognizers import (
    Bipartition,
    CotreeCertificate,
    EliminationOrder,
    MultipartiteParts,
    NotInClass,
    recognize_bipartite,
    recognize_chordal,
    recognize_cograph,
    recognize_complete_multipartite,
    validate_bipartition,
    validate_elimination_order,
    validate_multipartite,
)
from helpers import labelled_graphs


def test_bipartite_positive():
    cert = recognize_bipartite(cycle_graph(4))
    assert isinstance(cert, Bipartition)
    validate_bipartition(cycle_graph(4), cert)


def test_bipartite_odd_cycle_witness():
    for g in (complete_graph(3), cycle_graph(5), Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])):
        cert = recognize_bipartite(g)
        assert isinstance(cert, NotInClass)
        cyc = cert.witness
        assert len(cyc) % 2 == 1 and len(cyc) >= 3
        for i, u in enumerate(cyc):
            assert g.has_edge(u, cyc[(i + 1) % len(cyc)])


def test_chordal_positive_validates():
    for g in (complete_graph(4), path_graph(5), Graph(1)):
        cert = recognize_chordal(g)
        assert isinstance(cert, EliminationOrder)
        validate_elimination_order(g, cert)


def test_chordal_hole_witness():
    for g in (cycle_graph(4), cycle_graph(5), cycle_graph(6)):
        cert = recognize_chordal(g)
        assert isinstance(cert, NotInClass)
        hole = cert.witness
        assert len(hole) >= 4
        for i, u in enumerate(hole):
            assert g.has_edge(u, hole[(i + 1) % len(hole)])
        # chordless: non-consecutive pairs are non-adjacent
        for i in range(len(hole)):
            for j in range(i + 2, len(hole)):
                if i == 0 and j == len(hole) - 1:
                    continue
                assert not g.has_edge(hole[i], hole[j])


def test_cograph_recognizer():
    cert = recognize_cograph(path_graph(4))
    assert isinstance(cert, NotInClass)
    hit = cert.witness
    sub = [hit[i] for i in range(4)]
    assert len(set(sub)) == 4
    assert isinstance(recognize_cograph(cycle_graph(4)), CotreeCertificate)
    # The 0-vertex graph has no cotree: no cograph, rather than an error.
    assert isinstance(recognize_cograph(Graph(0)), NotInClass)


def test_complete_multipartite_recognizer():
    cert = recognize_complete_multipartite(cycle_graph(4))
    assert isinstance(cert, MultipartiteParts)
    validate_multipartite(cycle_graph(4), cert)
    bad = recognize_complete_multipartite(path_graph(4))
    assert isinstance(bad, NotInClass)


def test_multipartite_certificate_with_an_empty_part_rejected():
    # K2 has two parts; an empty third part would claim three.
    parts = (frozenset({0}), frozenset({1}), frozenset())
    with pytest.raises(CertificateError, match="empty"):
        validate_multipartite(complete_graph(2), MultipartiteParts(parts))
    validate_multipartite(complete_graph(2), MultipartiteParts(parts[:2]))


def test_multipartite_witness_is_p2_plus_p1():
    p2p1 = disjoint_union(path_graph(2), Graph(1))
    for g in (path_graph(4), disjoint_union(path_graph(2), Graph(1))):
        cert = recognize_complete_multipartite(g)
        assert isinstance(cert, NotInClass)
        a, b, c = cert.witness
        assert g.has_edge(a, b) and not g.has_edge(a, c) and not g.has_edge(b, c)
        assert contains_induced(g, p2p1) is not None


def test_negative_witnesses_validate_on_random_graphs():
    rng = random.Random(77)
    for _ in range(200):
        g = random_graph(rng, rng.randint(3, 9))
        cert = recognize_bipartite(g)
        if isinstance(cert, NotInClass):
            cyc = cert.witness
            assert len(cyc) % 2 == 1
            assert all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
        hole_cert = recognize_chordal(g)
        if isinstance(hole_cert, NotInClass):
            hole = hole_cert.witness
            assert len(hole) >= 4 and len(set(hole)) == len(hole)
            for i in range(len(hole)):
                for j in range(i + 1, len(hole)):
                    consecutive = j - i == 1 or (i == 0 and j == len(hole) - 1)
                    assert g.has_edge(hole[i], hole[j]) == consecutive
        co_cert = recognize_cograph(g)
        if isinstance(co_cert, NotInClass):
            a, b, c, d = co_cert.witness
            sub = [a, b, c, d]
            p4 = path_graph(4)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert g.has_edge(sub[i], sub[j]) == p4.has_edge(i, j)


def test_recognizers_match_forbidden_subgraph_characterisations():
    rng = random.Random(11)
    p4 = path_graph(4)
    p2p1 = disjoint_union(path_graph(2), Graph(1))
    for _ in range(250):
        g = random_graph(rng, rng.randint(1, 7))
        is_cograph = isinstance(recognize_cograph(g), CotreeCertificate)
        assert is_cograph == (contains_induced(g, p4) is None)
        is_cmp = isinstance(recognize_complete_multipartite(g), MultipartiteParts)
        assert is_cmp == (contains_induced(g, p2p1) is None)


def test_positive_certificates_validate_on_catalogues():
    for g in graph_catalogue("bipartite", 6):
        cert = recognize_bipartite(g)
        assert isinstance(cert, Bipartition)
        validate_bipartition(g, cert)
    for g in graph_catalogue("chordal", 6):
        cert = recognize_chordal(g)
        assert isinstance(cert, EliminationOrder)
        validate_elimination_order(g, cert)
    for g in graph_catalogue("complete-multipartite", 6):
        cert = recognize_complete_multipartite(g)
        assert isinstance(cert, MultipartiteParts)
        validate_multipartite(g, cert)


def test_chordal_gadget_like_graphs_recognized():
    # Disconnected inputs are accepted everywhere in graph-core.
    g = disjoint_union(complete_graph(3), complete_graph(2))
    assert isinstance(recognize_chordal(g), EliminationOrder)
    assert isinstance(recognize_bipartite(disjoint_union(path_graph(2), path_graph(3))), Bipartition)


# Differential checks: each certificate test against its definition, written
# out here, on every labelled graph on five vertices.
def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first], *partition]
        for i in range(len(partition)):
            yield [*partition[:i], [first, *partition[i]], *partition[i + 1 :]]


def _accepts(validate, g, cert):
    try:
        validate(g, cert)
    except CertificateError:
        return False
    return True


def test_elimination_order_check_matches_its_definition():
    # A perfect elimination order: the later neighbours of each vertex are
    # pairwise adjacent.  A graph is chordal iff it has one.
    orders = list(itertools.permutations(range(5)))
    for g in labelled_graphs(5):
        any_perfect = False
        for order in orders:
            pos = {v: i for i, v in enumerate(order)}
            perfect = all(
                g.has_edge(a, b)
                for v in order
                for a, b in itertools.combinations([w for w in g.neighbours(v) if pos[w] > pos[v]], 2)
            )
            any_perfect |= perfect
            assert _accepts(validate_elimination_order, g, EliminationOrder(order)) == perfect, (
                g.edges(), order)
        assert isinstance(recognize_chordal(g), EliminationOrder) == any_perfect, g.edges()


def test_bipartition_check_matches_its_definition():
    # A bipartition: no edge has both ends on one side.
    for g in labelled_graphs(5):
        for left_mask in range(1 << 5):
            left = frozenset(v for v in range(5) if left_mask >> v & 1)
            right = frozenset(range(5)) - left
            proper = all((u in left) != (v in left) for u, v in g.edges())
            assert _accepts(validate_bipartition, g, Bipartition(left, right)) == proper, (
                g.edges(), left)


def test_multipartite_check_matches_its_definition():
    # Parts of a complete multipartite graph: two vertices are adjacent
    # exactly when they lie in different parts.
    partitions = [tuple(map(frozenset, p)) for p in _set_partitions(list(range(5)))]
    assert len(partitions) == 52  # the Bell number B5
    for g in labelled_graphs(5):
        any_fits = False
        for parts in partitions:
            part_of = {v: i for i, part in enumerate(parts) for v in part}
            fits = all(
                g.has_edge(u, v) == (part_of[u] != part_of[v])
                for u, v in itertools.combinations(range(5), 2)
            )
            any_fits |= fits
            assert _accepts(validate_multipartite, g, MultipartiteParts(parts)) == fits, (
                g.edges(), parts)
        assert isinstance(recognize_complete_multipartite(g), MultipartiteParts) == any_fits
