import itertools
import random

import pytest

from blockerlab.catalogue import (
    CATALOGUE_CLASSES,
    graph_catalogue,
    random_connected_graph,
)
from blockerlab.errors import BUDGET_ENV_VAR, CapacityExceededError
from blockerlab.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    contract_edges,
    cycle_graph,
    delete_edges,
    delete_vertices,
    is_forest,
    path_graph,
    restriction,
    star_graph,
)
from blockerlab.isomorphism import are_isomorphic
from blockerlab.monochromatic import count_monochromatic_edges
from blockerlab.parameters import alpha_exact, chi_exact, omega_exact
from blockerlab.oracle import (
    _MONOTONE,
    OPERATIONS,
    PARAMETERS,
    BlockerQuery,
    OracleAnswer,
    _evaluator,
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


def test_subset_budget_refuses_before_the_value_before_is_solved(monkeypatch):
    # chi_exact would refuse K_21 for its 20-vertex ceiling; the subset
    # count is checked first, so the refusal names the subsets.
    monkeypatch.setenv(BUDGET_ENV_VAR, "50")
    query = BlockerQuery(complete_graph(21), "delete-vertices", "chi", 3, 1)
    with pytest.raises(CapacityExceededError, match="^1562 subsets exceed the budget of 50$"):
        brute_blocker(query)


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


# (answer, value_before, value_after, sorted witness) of brute_blocker with
# k = 3 and d = 2, recorded per (operation, parameter) on
# random_connected_graph(Random(seed), 8, 0.45).  Faster solvers or graph
# operations must keep the enumeration order and every witness.
PINNED_ORACLE_TABLES = {
    101: {
        ("contract", "alpha"): (True, 3, 1, ((0, 2), (1, 5), (2, 6))),
        ("contract", "omega"): (True, 4, 2, ((1, 3), (2, 6), (3, 4))),
        ("contract", "chi"): (True, 4, 2, ((1, 3), (2, 6), (3, 4))),
        ("delete-vertices", "alpha"): (False, 3, None, None),
        ("delete-vertices", "omega"): (True, 4, 2, (2, 3)),
        ("delete-vertices", "chi"): (True, 4, 2, (2, 3)),
        ("delete-edges", "alpha"): (False, 3, None, None),
        ("delete-edges", "omega"): (True, 4, 2, ((1, 3), (2, 6), (3, 4))),
        ("delete-edges", "chi"): (True, 4, 2, ((1, 3), (2, 6), (3, 4))),
    },
    102: {
        ("contract", "alpha"): (True, 4, 2, ((0, 1), (4, 7))),
        ("contract", "omega"): (False, 3, None, None),
        ("contract", "chi"): (False, 3, None, None),
        ("delete-vertices", "alpha"): (True, 4, 2, (1, 7)),
        ("delete-vertices", "omega"): (False, 3, None, None),
        ("delete-vertices", "chi"): (False, 3, None, None),
        ("delete-edges", "alpha"): (False, 4, None, None),
        ("delete-edges", "omega"): (False, 3, None, None),
        ("delete-edges", "chi"): (False, 3, None, None),
    },
    103: {
        ("contract", "alpha"): (False, 3, None, None),
        ("contract", "omega"): (True, 4, 2, ((1, 2), (1, 3), (1, 7))),
        ("contract", "chi"): (True, 4, 2, ((1, 2), (1, 3), (1, 7))),
        ("delete-vertices", "alpha"): (False, 3, None, None),
        ("delete-vertices", "omega"): (True, 4, 2, (1, 3)),
        ("delete-vertices", "chi"): (True, 4, 2, (1, 3)),
        ("delete-edges", "alpha"): (False, 3, None, None),
        ("delete-edges", "omega"): (True, 4, 2, ((1, 2), (3, 6), (3, 7))),
        ("delete-edges", "chi"): (True, 4, 2, ((1, 2), (3, 6), (3, 7))),
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_ORACLE_TABLES))
def test_brute_blocker_answers_and_witnesses_pinned(seed):
    g = random_connected_graph(random.Random(seed), 8, 0.45)
    table = {}
    for op, param in PINNED_ORACLE_TABLES[seed]:
        out = brute_blocker(BlockerQuery(g, op, param, 3, 2))
        witness = tuple(sorted(out.witness)) if out.witness is not None else None
        table[op, param] = (out.answer, out.value_before, out.value_after, witness)
    assert table == PINNED_ORACLE_TABLES[seed]


def _catalogue_graphs_to_6():
    """Every connected catalogue graph with n <= 6, each labelled graph once."""
    seen = {}
    for clazz in CATALOGUE_CLASSES:
        for g in graph_catalogue(clazz, 6):
            seen.setdefault(g, None)
    return list(seen)


_SOLVERS = {"alpha": alpha_exact, "omega": omega_exact, "chi": chi_exact}


def _value_after(g, op, param, subset):
    if op == "contract":
        h = contract_edges(g, subset)[0]
    elif op == "delete-vertices":
        h = delete_vertices(g, subset)[0]
    else:
        h = delete_edges(g, subset)
    return _SOLVERS[param](h).value


def _ground(g, op):
    return list(range(g.n)) if op == "delete-vertices" else g.edges()


def _scan(g, op, param, top=3):
    """Every subset of the ground set with at most ``top`` elements, by size
    and then lexicographically, with the parameter after the operation."""
    return [
        (subset, _value_after(g, op, param, subset))
        for size in range(top + 1)
        for subset in itertools.combinations(_ground(g, op), size)
    ]


def test_brute_blocker_equals_naive_enumeration():
    """All sizes from 0, each size in lexicographic order, first hit wins."""
    for g in _catalogue_graphs_to_6():
        for op, param in itertools.product(OPERATIONS, PARAMETERS):
            before = _SOLVERS[param](g).value
            scan = _scan(g, op, param)
            for k, d in itertools.product(range(4), (1, 2)):
                hit = next(((s, v) for s, v in scan if len(s) <= k and v <= before - d), None)
                out = brute_blocker(BlockerQuery(g, op, param, k, d))
                if hit is None:
                    expected = OracleAnswer(False, None, False, before, None)
                else:
                    expected = OracleAnswer(True, frozenset(hit[0]), True, before, hit[1])
                assert out == expected, (g.edges(), op, param, k, d)


@pytest.mark.slow
def test_brute_blocker_equals_naive_enumeration_at_7_and_8_vertices():
    """The same naive enumeration on seeded connected graphs of the size
    the benchmark's oracle table uses."""
    rng = random.Random(8)
    for i in range(40):
        g = random_connected_graph(rng, 7 + i % 2, 0.45)
        for op, param in itertools.product(OPERATIONS, PARAMETERS):
            before = _SOLVERS[param](g).value
            scan = _scan(g, op, param)
            for k, d in itertools.product(range(4), (1, 2)):
                hit = next(((s, v) for s, v in scan if len(s) <= k and v <= before - d), None)
                if hit is None:
                    expected = OracleAnswer(False, None, False, before, None)
                else:
                    expected = OracleAnswer(True, frozenset(hit[0]), True, before, hit[1])
                out = brute_blocker(BlockerQuery(g, op, param, k, d))
                assert out == expected, (g.edges(), op, param, k, d)


def test_evaluator_meets_its_definition():
    """value_after(subset, target) is the parameter after the operation when
    that is at most target, and otherwise above target and at most it, for
    every subset of at most three elements and every target from -1 up to
    the value before."""
    for g in _catalogue_graphs_to_6():
        for op, param in itertools.product(OPERATIONS, PARAMETERS):
            value_after = _evaluator(g, op, param)
            before = _SOLVERS[param](g).value
            for subset, true in _scan(g, op, param):
                for target in range(-1, before + 1):
                    got = value_after(subset, target)
                    if true <= target:
                        assert got == true, (g.edges(), op, param, subset, target)
                    else:
                        assert target < got <= true, (g.edges(), op, param, subset, target)


def _growth_steps(g, op, param):
    """(value of s, value of s plus x) for every s of size <= 2 and x not in s."""
    value = {frozenset(s): v for s, v in _scan(g, op, param)}
    for s, v in value.items():
        if len(s) < 3:
            for x in _ground(g, op):
                if x not in s:
                    yield v, value[s | {x}]


def test_monotone_pairs_never_rise_when_a_set_grows():
    """The pairs the oracle decides at its top layer: adding one element to
    any set of size <= 2 never raises the parameter."""
    for g in _catalogue_graphs_to_6():
        for op, param in sorted(_MONOTONE):
            for v, grown in _growth_steps(g, op, param):
                assert grown <= v, (g.edges(), op, param)


def test_deleting_edges_never_lowers_alpha():
    assert ("delete-edges", "alpha") not in _MONOTONE
    for g in _catalogue_graphs_to_6():
        for v, grown in _growth_steps(g, "delete-edges", "alpha"):
            assert grown >= v, g.edges()


@pytest.mark.parametrize("param", ["omega", "chi"])
def test_contraction_of_omega_and_chi_is_not_monotone(param):
    """K_{3,3} plus the edge 0-1 inside one side: contracting 0-1 alone
    drops omega and chi from 3 to 2, but every set of two edges leaves at
    least 3, so a scan of the top layer alone would answer k = 2, d = 1
    wrongly."""
    g = Graph(6, [(0, 1)] + [(a, b) for a in range(3) for b in range(3, 6)])
    assert ("contract", param) not in _MONOTONE
    assert _value_after(g, "contract", param, ()) == 3
    assert _value_after(g, "contract", param, ((0, 1),)) == 2
    assert all(_value_after(g, "contract", param, s) >= 3 for s in itertools.combinations(g.edges(), 2))
    out = brute_blocker(BlockerQuery(g, "contract", param, 2, 1))
    assert out == OracleAnswer(True, frozenset({(0, 1)}), True, 3, 2)


def test_minimal_criticality_equals_its_definition():
    """Critical, and no proper subset critical, read off the naive scan."""
    for g in _catalogue_graphs_to_6():
        if g.n > 5:
            continue
        for param in PARAMETERS:
            before = _SOLVERS[param](g).value
            critical = {frozenset(s): v < before for s, v in _scan(g, "contract", param)}
            for s, is_critical in critical.items():
                proper = (t for t in critical if t < s)
                expected = is_critical and not any(critical[t] for t in proper)
                assert is_minimal_critical(g, sorted(s, reverse=True), param) == expected
