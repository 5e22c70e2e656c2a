import itertools
import random

import pytest

from blockerlab.catalogue import (
    graph_catalogue,
    random_connected_graph,
)
from blockerlab.errors import BUDGET_ENV_VAR, CapacityExceededError
from blockerlab.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_forest,
    path_graph,
    restriction,
    star_graph,
)
from blockerlab.isomorphism import are_isomorphic
from blockerlab.monochromatic import count_monochromatic_edges
from blockerlab.oracle import (
    BlockerQuery,
    apply_operation,
    brute_blocker,
    brute_blocker_decision,
    brute_min_mono,
    brute_mss,
    is_contraction_critical,
    is_minimal_critical,
    min_critical_size,
)


def test_brute_blocker_examples():
    assert not brute_blocker(BlockerQuery(path_graph(4), "contract", "alpha", 1, 1)).answer
    out = brute_blocker(BlockerQuery(cycle_graph(4), "contract", "alpha", 1, 1))
    assert out.answer and out.witness == {(0, 1)} and out.minimal
    assert out.value_before == 2 and out.value_after == 1
    assert brute_blocker(
        BlockerQuery(complete_graph(3), "delete-vertices", "omega", 1, 1)
    ).answer


def test_brute_blocker_witness_is_minimum_and_lex_least():
    g = cycle_graph(6)
    out = brute_blocker(BlockerQuery(g, "contract", "alpha", 6, 1))
    assert out.answer
    # No smaller set works, and ties break lexicographically.
    assert len(out.witness) == min_critical_size(g, "contract", "alpha", 1)
    smaller = [
        s
        for size in range(len(out.witness))
        for s in itertools.combinations(g.edges(), size)
        if is_contraction_critical(g, s, "alpha")
    ]
    assert not smaller


def test_brute_blocker_minimum_witnesses_are_inclusion_minimal():
    rng = random.Random(59)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 6))
        out = brute_blocker(BlockerQuery(g, "contract", "alpha", g.edge_count(), 1))
        if out.answer:
            assert out.minimal
            assert is_minimal_critical(g, out.witness, "alpha")


def test_brute_blocker_k_zero_is_no():
    out = brute_blocker(BlockerQuery(cycle_graph(4), "contract", "alpha", 0, 1))
    assert not out.answer and out.witness is None


def test_brute_blocker_budget_error():
    g = complete_bipartite_graph(4, 4)
    with pytest.raises(CapacityExceededError):
        brute_blocker(BlockerQuery(g, "contract", "alpha", 8, 1), budget=10)


def test_brute_blocker_invalid_query():
    with pytest.raises(ValueError):
        BlockerQuery(path_graph(3), "contract", "alpha", 1, 0)
    with pytest.raises(ValueError):
        BlockerQuery(path_graph(3), "shrink", "alpha", 1, 1)
    with pytest.raises(ValueError):
        apply_operation(path_graph(3), "shrink", [(0, 1)])


def test_decision_variant_agrees_on_monotone_pairs():
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 7))
        for op, param in [
            ("contract", "alpha"),
            ("delete-vertices", "alpha"),
            ("delete-vertices", "omega"),
            ("delete-edges", "chi"),
        ]:
            k = rng.randint(0, 4)
            q = BlockerQuery(g, op, param, k, 1)
            assert brute_blocker_decision(q).answer == brute_blocker(q).answer


def test_decision_variant_rejects_non_monotone():
    with pytest.raises(ValueError):
        brute_blocker_decision(BlockerQuery(cycle_graph(4), "contract", "omega", 1, 1))


def test_criticality_checks():
    g = cycle_graph(4)
    assert is_contraction_critical(g, [(0, 1)], "alpha")
    assert not is_contraction_critical(g, [], "alpha")
    assert is_minimal_critical(g, [(0, 1)], "alpha")
    assert not is_minimal_critical(g, [(0, 1), (1, 2)], "alpha")


def test_minimal_critical_sets_have_forest_restriction():
    rng = random.Random(29)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 6))
        edges = g.edges()
        for size in range(1, min(4, len(edges)) + 1):
            for s in itertools.combinations(edges, size):
                if is_minimal_critical(g, s, "alpha"):
                    assert is_forest(restriction(g, s))


def test_brute_min_mono_examples():
    assert brute_min_mono(complete_graph(4), 2)[0] == 2
    assert brute_min_mono(cycle_graph(4), 2)[0] == 0
    assert brute_min_mono(complete_graph(4), 1)[0] == 6
    count, col = brute_min_mono(complete_graph(4), 2)
    assert count_monochromatic_edges(complete_graph(4), col) == count
    assert col[0] == 1  # canonical: the first colour class holds vertex 0


def test_brute_min_mono_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
    with pytest.raises(CapacityExceededError):
        brute_min_mono(Graph(30), 2)


def test_brute_mss_examples():
    assert brute_mss(2, (1, 1), 2)[0] == 2
    assert brute_mss(2, (1, 1), 1)[0] == 4
    best, parts = brute_mss(3, (1, 2, 3), 2)
    assert best == 18
    assert sorted(sum((mss_part for mss_part in parts), ())) == [0, 1, 2]


def test_brute_mss_budget_and_validation(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    with pytest.raises(CapacityExceededError):
        brute_mss(20, (1,) * 20, 3)
    with pytest.raises(ValueError):
        brute_mss(2, (1,), 2)


def test_catalogue_contents():
    small_bipartite = list(graph_catalogue("bipartite", 4))
    for expect in (path_graph(2), path_graph(3), path_graph(4), cycle_graph(4), star_graph(3)):
        assert any(are_isomorphic(g, expect) for g in small_bipartite)

    for g in graph_catalogue("cograph", 6):
        from blockerlab.graph import contains_induced

        assert contains_induced(g, path_graph(4)) is None

    for g in graph_catalogue("chordal", 6):
        from blockerlab.graph import contains_induced

        assert contains_induced(g, cycle_graph(4)) is None


def test_catalogue_counts_match_published_sequences():
    def counts(clazz, n_max):
        by_n = {}
        for g in graph_catalogue(clazz, n_max):
            by_n[g.n] = by_n.get(g.n, 0) + 1
        return [by_n.get(n, 0) for n in range(1, n_max + 1)]

    # Connected graphs: bipartite OEIS A005142, chordal A048193, cographs
    # A000669, triangle-free A024607.
    assert counts("bipartite", 8) == [1, 1, 1, 3, 5, 17, 44, 182]
    assert counts("chordal", 8) == [1, 1, 2, 5, 15, 58, 272, 1614]
    assert counts("cograph", 8) == [1, 1, 2, 5, 12, 33, 90, 261]
    assert counts("c3-free", 8) == [1, 1, 1, 3, 6, 19, 59, 267]
    assert counts("complete-multipartite", 6) == [1, 1, 2, 4, 6, 10]


def test_catalogue_members_are_connected_and_distinct():
    graphs = list(graph_catalogue("bipartite", 5))
    for g in graphs:
        assert g.is_connected()
    for a, b in itertools.combinations(graphs, 2):
        if a.n == b.n:
            assert not are_isomorphic(a, b)
