import itertools
import math
import random

import pytest

from blockerlab import bipartite_blocker
from blockerlab.bipartite_blocker import (
    MAX_SUPPORTED_D,
    alpha_after_contraction_bipartite,
    build_contraction_tree,
    solve_bipartite_contraction_blocker,
)
from blockerlab.catalogue import graph_catalogue, random_connected_bipartite
from blockerlab.errors import CertificateError
from blockerlab.graph import (
    Graph,
    complete_bipartite_graph,
    contract_edges,
    cycle_graph,
    delete_vertices,
    is_forest,
    path_graph,
    restriction,
)
from blockerlab.oracle import BlockerQuery, brute_blocker, min_critical_size
from blockerlab.parameters import alpha_exact, mu_bipartite
from blockerlab.recognizers import recognize_bipartite


def test_tree_trace_on_p4():
    g = path_graph(4)
    m = mu_bipartite(g, recognize_bipartite(g)).witness
    assert sorted(m) == [(0, 1), (2, 3)]
    tree = build_contraction_tree(g, m, 1)
    assert sorted(tree) == [(0, 1), (1, 2), (2, 3)]


def test_tree_trace_on_c4():
    g = cycle_graph(4)
    m = mu_bipartite(g, recognize_bipartite(g)).witness
    tree = build_contraction_tree(g, m, 1)
    assert len(tree) == 3
    assert is_forest(restriction(g, tree))
    assert restriction(g, tree).connected_components()[0] == [0, 1, 2, 3]


def test_tree_on_k23():
    g = complete_bipartite_graph(2, 3)
    m = mu_bipartite(g, recognize_bipartite(g)).witness
    assert len(m) == 2
    tree = build_contraction_tree(g, m, 1)
    assert len(tree) in (2, 3)
    assert is_forest(restriction(g, tree))


def test_tree_edge_count_and_alpha_drop_random():
    rng = random.Random(21)
    for d in (1, 2):
        done = 0
        while done < 60:
            n = rng.randint(2 * d + 2, 11)
            g = random_connected_bipartite(rng, n)
            cert = recognize_bipartite(g)
            alpha = alpha_exact(g).value
            if alpha < d + 1:
                continue
            m = mu_bipartite(g, cert).witness
            tree = build_contraction_tree(g, m, d)
            assert len(tree) in (2 * d, 2 * d + 1)
            sub = restriction(g, tree)
            assert is_forest(sub)
            assert max(len(c) for c in sub.connected_components()) == len(tree) + 1
            after = alpha_exact(contract_edges(g, tree)[0]).value
            assert after <= alpha - d
            # The proof's intermediate bound for the tree-deleted graph.
            touched = {v for e in tree for v in e}
            remainder, _ = delete_vertices(g, touched)
            assert alpha_exact(remainder).value <= alpha - d - 1
            done += 1


def test_tree_precondition_errors():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        build_contraction_tree(g, frozenset({(0, 1)}), 1)  # disconnected
    with pytest.raises(ValueError):
        build_contraction_tree(path_graph(4), frozenset(), 1)  # empty matching


def test_alpha_after_examples():
    g = cycle_graph(4)
    cert = recognize_bipartite(g)
    assert alpha_after_contraction_bipartite(g, [], cert) == 2
    assert alpha_after_contraction_bipartite(g, [(0, 1)], cert) == 1
    p4 = path_graph(4)
    cert4 = recognize_bipartite(p4)
    assert alpha_after_contraction_bipartite(p4, [(0, 1), (2, 3)], cert4) == 1


def test_alpha_after_matches_exact_on_random_subsets():
    rng = random.Random(31)
    for _ in range(150):
        g = random_connected_bipartite(rng, rng.randint(2, 9))
        cert = recognize_bipartite(g)
        edges = g.edges()
        s = rng.sample(edges, rng.randint(0, min(4, len(edges))))
        expected = alpha_exact(contract_edges(g, s)[0]).value
        assert alpha_after_contraction_bipartite(g, s, cert) == expected


def _assert_split_meets_its_definition(n_min, n_max):
    """alpha_after_contraction_bipartite(g, s, cert, target) is alpha after
    contracting s when that is at most target, and otherwise above target
    and at most it, for every connected bipartite catalogue graph with
    n_min <= n <= n_max, every set s of at most three edges and every
    target from -1 up to alpha."""
    for g in graph_catalogue("bipartite", n_max):
        if g.n < n_min:
            continue
        cert = recognize_bipartite(g)
        alpha = alpha_exact(g).value
        for size in range(min(3, g.edge_count()) + 1):
            for s in itertools.combinations(g.edges(), size):
                true = alpha_exact(contract_edges(g, s)[0]).value
                for target in range(-1, alpha + 1):
                    got = alpha_after_contraction_bipartite(g, s, cert, target)
                    if true <= target:
                        assert got == true, (g.edges(), s, target)
                    else:
                        assert target < got <= true, (g.edges(), s, target)


def test_split_meets_its_definition():
    _assert_split_meets_its_definition(1, 7)


@pytest.mark.slow
def test_split_meets_its_definition_at_8_vertices():
    _assert_split_meets_its_definition(8, 8)


def test_solver_spec_examples():
    p4 = path_graph(4)
    assert not solve_bipartite_contraction_blocker(p4, 1, 1).answer
    out = solve_bipartite_contraction_blocker(p4, 2, 1)
    assert out.answer and len(out.witness.edges) <= 2
    assert solve_bipartite_contraction_blocker(cycle_graph(4), 1, 1).answer


def test_solver_guaranteed_yes_at_2d_plus_1():
    rng = random.Random(41)
    for d in (1, 2):
        done = 0
        while done < 40:
            g = random_connected_bipartite(rng, rng.randint(2 * d + 2, 11))
            if alpha_exact(g).value < d + 1:
                continue
            out = solve_bipartite_contraction_blocker(g, 2 * d + 1, d)
            assert out.answer
            w = out.witness
            after = alpha_exact(contract_edges(g, w.edges)[0]).value
            assert after == w.claimed_alpha_after <= out.alpha_before - d
            done += 1


def test_solver_agrees_with_oracle_small():
    for g in graph_catalogue("bipartite", 6):
        if g.n < 2:
            continue
        m = g.edge_count()
        for d in (1, 2):
            mstar = min_critical_size(g, "contract", "alpha", d)
            for k in range(0, m + 1):
                out = solve_bipartite_contraction_blocker(g, k, d)
                assert out.answer == (mstar is not None and mstar <= k)


def test_solver_supports_d3():
    rng = random.Random(61)
    checked = 0
    while checked < 5:
        g = random_connected_bipartite(rng, rng.randint(8, 10))
        if alpha_exact(g).value < 4:
            continue
        mstar = min_critical_size(g, "contract", "alpha", 3)
        for k in (mstar - 1, mstar, 7):
            out = solve_bipartite_contraction_blocker(g, k, 3)
            assert out.answer == (mstar <= k)
        checked += 1


def test_solver_rejects_bad_inputs():
    from blockerlab.graph import complete_graph

    with pytest.raises(CertificateError):
        solve_bipartite_contraction_blocker(complete_graph(3), 1, 1)
    with pytest.raises(CertificateError):
        solve_bipartite_contraction_blocker(Graph(4, [(0, 1), (2, 3)]), 1, 1)
    with pytest.raises(ValueError):
        solve_bipartite_contraction_blocker(path_graph(4), 1, 0)
    with pytest.raises(ValueError):
        solve_bipartite_contraction_blocker(path_graph(4), -1, 1)
    with pytest.raises(ValueError):
        solve_bipartite_contraction_blocker(path_graph(4), 1, 4)


def test_enumeration_scans_the_top_layer_first(monkeypatch):
    """(contract, alpha) is monotone, so a no scans only the top layer.  The
    calls are counted through the module attribute, the name the benchmark's
    spans rebind."""
    calls = 0
    evaluate = bipartite_blocker.alpha_after_contraction_bipartite

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(bipartite_blocker, "alpha_after_contraction_bipartite", counted)
    assert not solve_bipartite_contraction_blocker(cycle_graph(10), 2, 2).answer
    assert calls == math.comb(10, 2) == 45


def _enumeration_queries(n_min, n_max):
    """(graph, k, d) for every connected bipartite catalogue graph with
    n_min <= n <= n_max and every query the k <= 2d enumeration answers."""
    for g in graph_catalogue("bipartite", n_max):
        for d in range(1, MAX_SUPPORTED_D + 1):
            if n_min <= g.n and g.n > 2 * d + 1:
                for k in range(1, 2 * d + 1):
                    yield g, k, d


def _assert_enumeration_equals_oracle(queries):
    """The solver's answer, witness edges and value after are the oracle's."""
    count = 0
    for g, k, d in queries:
        out = solve_bipartite_contraction_blocker(g, k, d)
        oracle = brute_blocker(BlockerQuery(g, "contract", "alpha", k, d))
        assert out.answer == oracle.answer, (g.edges(), k, d)
        assert out.alpha_before == oracle.value_before
        if oracle.answer:
            assert out.witness.edges == oracle.witness, (g.edges(), k, d)
            assert out.witness.claimed_alpha_after == oracle.value_after
        else:
            assert out.witness is None
        count += 1
    return count


def test_enumeration_witness_is_the_oracles():
    assert _assert_enumeration_equals_oracle(_enumeration_queries(1, 7)) == 382


@pytest.mark.slow
def test_enumeration_witness_is_the_oracles_at_8_vertices():
    assert _assert_enumeration_equals_oracle(_enumeration_queries(8, 8)) == 2184


def _tiny_queries():
    """(graph, k, d) for every connected bipartite catalogue graph with
    2 <= n <= 2d+1 and every k from 0 to its edge count."""
    for g in graph_catalogue("bipartite", 7):
        for d in range(1, MAX_SUPPORTED_D + 1):
            if 2 <= g.n <= 2 * d + 1:
                for k in range(g.edge_count() + 1):
                    yield g, k, d


def test_tiny_graphs_answer_as_the_oracle():
    assert _assert_enumeration_equals_oracle(_tiny_queries()) == 605
