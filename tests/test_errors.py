import pytest

from blockerlab.bipartite_blocker import solve_bipartite_contraction_blocker
from blockerlab.cotree import build_cotree
from blockerlab.errors import (
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET,
    CapacityExceededError,
    check_capacity,
    configured_budget,
)
from blockerlab.graph import Graph, complete_bipartite_graph, complete_graph, cycle_graph
from blockerlab.monochromatic import min_mono_edges_deficiency, min_mono_edges_fixed_h
from blockerlab.oracle import (
    BlockerQuery,
    brute_blocker,
    brute_blocker_decision,
    brute_min_mono,
    brute_mss,
    is_minimal_critical,
)
from blockerlab.parameters import (
    ALPHA_OMEGA_VERTEX_CEILING,
    CHI_VERTEX_CEILING,
    alpha_exact,
    chi_exact,
    omega_exact,
)

# Above both vertex ceilings, so a ceiling that read the environment would
# let its oversized input through instead of refusing it.
CONFIGURED = 50

# Every refusal site of the package, each with an input just too large for
# it and the budget it must report.
SITES = {
    "brute_blocker": (
        lambda: brute_blocker(BlockerQuery(complete_bipartite_graph(4, 4), "contract", "alpha", 8, 1)),
        CONFIGURED,
    ),
    "brute_blocker_decision": (
        lambda: brute_blocker_decision(BlockerQuery(complete_graph(8), "delete-edges", "chi", 4, 1)),
        CONFIGURED,
    ),
    "brute_min_mono": (lambda: brute_min_mono(Graph(10), 2), CONFIGURED),
    "brute_mss": (lambda: brute_mss(10, (1,) * 10, 2), CONFIGURED),
    "alpha_exact": (lambda: alpha_exact(Graph(41)), ALPHA_OMEGA_VERTEX_CEILING),
    "omega_exact": (lambda: omega_exact(Graph(41)), ALPHA_OMEGA_VERTEX_CEILING),
    "chi_exact": (lambda: chi_exact(Graph(21)), CHI_VERTEX_CEILING),
    "fixed_h_cells": (lambda: min_mono_edges_fixed_h(build_cotree(complete_graph(8)), 3), CONFIGURED),
    "deficiency_memo": (
        lambda: min_mono_edges_deficiency(build_cotree(complete_graph(8)), 3),
        CONFIGURED,
    ),
    "bipartite_enumeration": (
        lambda: solve_bipartite_contraction_blocker(cycle_graph(40), 4, 3),
        CONFIGURED,
    ),
    # 2^6 - 1 sets: the six edges and their non-empty proper subsets.
    "minimal_critical_subsets": (
        lambda: is_minimal_critical(cycle_graph(6), cycle_graph(6).edges(), "alpha"),
        CONFIGURED,
    ),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_refusal_reports_integer_needed_and_budget(site, monkeypatch):
    run, budget = SITES[site]
    monkeypatch.setenv(BUDGET_ENV_VAR, str(CONFIGURED))
    with pytest.raises(CapacityExceededError) as info:
        run()
    exc = info.value
    assert type(exc.needed) is int and type(exc.budget) is int
    assert exc.needed > exc.budget == budget
    assert str(exc.needed) in str(exc)


def test_gate_admits_exactly_the_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "7")
    check_capacity(7, "units")
    check_capacity(41, "vertices", 41)  # a fixed ceiling ignores the environment
    with pytest.raises(CapacityExceededError, match="^8 units exceed the budget of 7$"):
        check_capacity(8, "units")


@pytest.mark.parametrize("value", ["-1", "abc", "1.5", "-0x10"])
def test_budget_variable_must_be_a_non_negative_integer(value, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    with pytest.raises(ValueError, match=f"^{BUDGET_ENV_VAR} must be a non-negative integer, got '{value}'$"):
        check_capacity(1, "units")
    # A solver refuses the same way before it starts, and the CLI maps a
    # ValueError to exit 2.
    with pytest.raises(ValueError, match=BUDGET_ENV_VAR):
        brute_blocker(BlockerQuery(cycle_graph(4), "contract", "alpha", 1, 1))


def test_budget_variable_accepts_zero_and_defaults_when_empty(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "0")
    assert configured_budget() == 0
    monkeypatch.setenv(BUDGET_ENV_VAR, "")
    assert configured_budget() == DEFAULT_BUDGET
    assert configured_budget(3) == 3
