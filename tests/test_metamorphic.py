"""Metamorphic checks of the blocker routes: relations between answers that
hold without knowing any answer, so they check a route at sizes where
nothing else can.

On seeded connected bipartite graphs, for ``brute_blocker`` and
``solve_bipartite_contraction_blocker``:

* relabelling the vertices keeps the answer and the value before, and the
  witness mapped through the relabelling is a witness of the relabelled
  graph, of the size the relabelled query reports;
* a yes at ``k`` stays a yes at ``k + 1``;
* a yes at ``d`` stays a yes at ``d - 1``.

Every witness is checked against the exact solvers.  A query that passes
the subset budget is refused and its relations go unchecked, so each test
also requires that enough of its queries answer, and enough of them yes.
"""

import itertools
import random
from collections import Counter

import pytest

from blockerlab.bipartite_blocker import solve_bipartite_contraction_blocker
from blockerlab.catalogue import random_connected_bipartite
from blockerlab.errors import BUDGET_ENV_VAR, CapacityExceededError
from blockerlab.oracle import (
    OPERATIONS,
    PARAMETERS,
    BlockerQuery,
    apply_operation,
    brute_blocker,
    parameter_value,
)
from helpers import relabel

# On a connected bipartite graph with 10 or more vertices omega and chi are
# 2, and only a vertex cover or every edge takes them lower, so the other
# seven pairs are nearly always a no there: each query checks both alpha
# pairs and one of the seven in turn.
ALPHA_PAIRS = (("contract", "alpha"), ("delete-vertices", "alpha"))
OTHER_PAIRS = tuple(p for p in itertools.product(OPERATIONS, PARAMETERS) if p not in ALPHA_PAIRS)


def _queries(seed, count, n_max):
    """(graph, vertex permutation, k, d) with 10 <= n <= n_max, d <= 3 and
    d - 1 <= k <= 3, so that k + 1 stays within 4."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(10, n_max)
        g = random_connected_bipartite(rng, n, 3 / n)
        perm = list(range(n))
        rng.shuffle(perm)
        d = rng.randint(1, 3)
        yield g, perm, rng.randint(d - 1, 3), d


def _mapped(witness, operation, perm):
    if operation == "delete-vertices":
        return frozenset(perm[v] for v in witness)
    return frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in witness)


def _after(g, operation, parameter, witness):
    """The parameter after the operation on ``witness``, by the exact solvers."""
    return parameter_value(apply_operation(g, operation, witness), parameter)


def _check_oracle(g, perm, operation, parameter, k, d, budget):
    """The relations on one ``brute_blocker`` query; its answer, or
    "refused"."""
    def solve(h, k, d):
        return brute_blocker(BlockerQuery(h, operation, parameter, k, d), budget)

    h = relabel(g, perm)
    try:
        out, again, more = solve(g, k, d), solve(h, k, d), solve(g, k + 1, d)
        less = solve(g, k, d - 1) if d > 1 else out
    except CapacityExceededError:
        return "refused"
    case = (g.edges(), perm, operation, parameter, k, d)
    assert (again.answer, again.value_before) == (out.answer, out.value_before), case
    if out.answer:
        witness = _mapped(out.witness, operation, perm)
        assert _after(h, operation, parameter, witness) == out.value_after <= out.value_before - d, case
        assert len(again.witness) == len(witness), case
        # The least minimum witness does not depend on k once k reaches its size.
        assert more == out, case
        assert less.answer and len(less.witness) <= len(out.witness), case
        assert _after(g, operation, parameter, less.witness) == less.value_after <= out.value_before - d + 1, case
    return out.answer


def _check_bipartite_solver(g, perm, k, d):
    """The relations on one bipartite blocker query; its answer, or
    "refused".  Its witness is a minimum one on the enumeration route
    (k <= 2d) and not on the tree route, so only there do the relabelled
    witness sizes have to agree."""
    h = relabel(g, perm)
    try:
        out, again, more = (solve_bipartite_contraction_blocker(g, k, d),
                            solve_bipartite_contraction_blocker(h, k, d),
                            solve_bipartite_contraction_blocker(g, k + 1, d))
        less = solve_bipartite_contraction_blocker(g, k, d - 1) if d > 1 else out
    except CapacityExceededError:
        return "refused"
    case = (g.edges(), perm, k, d)
    assert (again.answer, again.alpha_before) == (out.answer, out.alpha_before), case
    if out.answer:
        witness = _mapped(out.witness.edges, "contract", perm)
        assert _after(h, "contract", "alpha", witness) == out.witness.claimed_alpha_after, case
        assert out.witness.claimed_alpha_after <= out.alpha_before - d, case
        if k <= 2 * d:
            assert len(again.witness.edges) == len(witness), case
        assert more.answer and less.answer, case
        for w, drop in ((more.witness, d), (less.witness, d - 1)):
            assert _after(g, "contract", "alpha", w.edges) == w.claimed_alpha_after <= out.alpha_before - drop, case
    return out.answer


def _oracle_answers(queries, budget):
    return Counter(
        _check_oracle(g, perm, operation, parameter, k, d, budget)
        for i, (g, perm, k, d) in enumerate(queries)
        for operation, parameter in ALPHA_PAIRS + (OTHER_PAIRS[i % len(OTHER_PAIRS)],)
    )


def _bipartite_solver_answers(queries):
    return Counter(_check_bipartite_solver(g, perm, k, d) for g, perm, k, d in queries)


def test_oracle_metamorphic_relations():
    answers = _oracle_answers(_queries(1401, 90, 20), budget=10000)
    assert answers[True] >= 70 and answers["refused"] <= 5, answers


def test_bipartite_blocker_metamorphic_relations():
    answers = _bipartite_solver_answers(_queries(1402, 80, 20))
    assert answers[True] >= 40 and answers["refused"] == 0, answers


@pytest.mark.slow
def test_metamorphic_relations_to_30_vertices(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "60000")
    answers = _oracle_answers(_queries(1403, 200, 30), budget=60000)
    assert answers[True] >= 200 and answers["refused"] <= 45, answers
    answers = _bipartite_solver_answers(_queries(1404, 200, 30))
    assert answers[True] >= 95 and answers["refused"] <= 5, answers
