"""Brute-force ground truth: blocker search, colouring search, partition search.

Everything here is deliberately naive.  These routines anchor the polynomial
algorithms and the gadget constructions, so they must be simple enough to be
obviously correct and must fail loudly (``CapacityExceededError``) instead of
degrading when an instance is too large for exhaustive search.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CapacityExceededError
from .graph import (
    Graph,
    contract_edges,
    delete_edges,
    delete_vertices,
    validate_edge_set,
)
from .parameters import alpha_exact, chi_exact, omega_exact

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "BLOCKERLAB_BUDGET"

OPERATIONS = ("contract", "delete-vertices", "delete-edges")
PARAMETERS = ("alpha", "omega", "chi")

# (operation, parameter) pairs where the parameter can only shrink when the
# set grows, so a fixed-size search decides the existence question.
_MONOTONE = {
    ("contract", "alpha"),
    ("delete-vertices", "alpha"),
    ("delete-vertices", "omega"),
    ("delete-vertices", "chi"),
    ("delete-edges", "omega"),
    ("delete-edges", "chi"),
}


@dataclass(frozen=True)
class BlockerQuery:
    graph: Graph
    operation: str  # contract | delete-vertices | delete-edges
    parameter: str  # alpha | omega | chi
    k: int
    d: int

    def __post_init__(self):
        if self.operation not in OPERATIONS:
            raise ValueError(f"unknown operation {self.operation!r}")
        if self.parameter not in PARAMETERS:
            raise ValueError(f"unknown parameter {self.parameter!r}")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.d < 1:
            raise ValueError("d must be at least 1")


@dataclass(frozen=True)
class OracleAnswer:
    answer: bool
    witness: Optional[frozenset]
    minimal: bool
    value_before: int
    value_after: Optional[int]


def configured_budget(budget: Optional[int] = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_BUDGET


def parameter_value(g: Graph, parameter: str) -> int:
    fn = {"alpha": alpha_exact, "omega": omega_exact, "chi": chi_exact}[parameter]
    return fn(g).value


def apply_operation(g: Graph, operation: str, chosen: Iterable) -> Graph:
    if operation == "contract":
        return contract_edges(g, chosen)[0]
    if operation == "delete-vertices":
        return delete_vertices(g, chosen)[0]
    if operation == "delete-edges":
        return delete_edges(g, chosen)
    raise ValueError(f"unknown operation {operation!r}")


def _ground_set(g: Graph, operation: str) -> list:
    return list(range(g.n)) if operation == "delete-vertices" else g.edges()


def _subset_count(m: int, k: int) -> int:
    return sum(math.comb(m, i) for i in range(min(k, m) + 1))


def brute_blocker(q: BlockerQuery, budget: Optional[int] = None) -> OracleAnswer:
    """Exhaustive blocker decision with a minimum-size witness.

    Subsets are enumerated by increasing size and lexicographically within a
    size, so the reported witness is deterministic: the lexicographically
    least among the minimum-size ones.
    """
    budget = configured_budget(budget)
    ground = _ground_set(q.graph, q.operation)
    needed = _subset_count(len(ground), q.k)
    if needed > budget:
        raise CapacityExceededError(
            f"{needed} subsets exceed the oracle budget of {budget}",
            needed=needed,
            budget=budget,
        )
    before = parameter_value(q.graph, q.parameter)
    target = before - q.d

    def hit(subset: tuple) -> bool:
        return parameter_value(apply_operation(q.graph, q.operation, subset), q.parameter) <= target

    for size in range(0, min(q.k, len(ground)) + 1):
        found = _first_hit(ground, size, hit)
        if found is not None:
            witness = frozenset(found)
            after = parameter_value(
                apply_operation(q.graph, q.operation, witness), q.parameter
            )
            return OracleAnswer(True, witness, True, before, after)
    return OracleAnswer(False, None, False, before, None)


def _first_hit(ground: Sequence, size: int, hit):
    for subset in itertools.combinations(ground, size):
        if hit(subset):
            return subset
    return None


def brute_blocker_decision(q: BlockerQuery, budget: Optional[int] = None) -> OracleAnswer:
    """Decision-only variant for monotone (operation, parameter) pairs.

    When growing the set can only shrink the parameter, a witness of size
    ``<= k`` exists iff one of size exactly ``min(k, |ground|)`` does, so a
    single combination layer decides the instance.  The witness is not
    minimum-size.
    """
    if (q.operation, q.parameter) not in _MONOTONE:
        raise ValueError(
            f"({q.operation}, {q.parameter}) is not monotone; use brute_blocker"
        )
    budget = configured_budget(budget)
    ground = _ground_set(q.graph, q.operation)
    size = min(q.k, len(ground))
    needed = math.comb(len(ground), size)
    if needed > budget:
        raise CapacityExceededError(
            f"{needed} subsets exceed the oracle budget of {budget}",
            needed=needed,
            budget=budget,
        )
    before = parameter_value(q.graph, q.parameter)
    target = before - q.d

    def hit(subset: tuple) -> bool:
        return parameter_value(apply_operation(q.graph, q.operation, subset), q.parameter) <= target

    found = _first_hit(ground, size, hit)
    if found is None:
        return OracleAnswer(False, None, False, before, None)
    witness = frozenset(found)
    after = parameter_value(apply_operation(q.graph, q.operation, witness), q.parameter)
    return OracleAnswer(True, witness, False, before, after)


def min_critical_size(
    g: Graph,
    operation: str,
    parameter: str,
    d: int,
    budget: Optional[int] = None,
) -> Optional[int]:
    """Smallest set size achieving the drop, or None if no set at all does."""
    ground = _ground_set(g, operation)
    answer = brute_blocker(
        BlockerQuery(g, operation, parameter, len(ground), d), budget=budget
    )
    return len(answer.witness) if answer.answer else None


def is_contraction_critical(g: Graph, s, parameter: str) -> bool:
    s = validate_edge_set(g, s)
    before = parameter_value(g, parameter)
    return parameter_value(contract_edges(g, s)[0], parameter) < before


def is_minimal_critical(g: Graph, s, parameter: str) -> bool:
    """Critical, and no proper subset is critical."""
    s = validate_edge_set(g, s)
    if not is_contraction_critical(g, s, parameter):
        return False
    edges = sorted(s)
    for size in range(len(edges)):
        for subset in itertools.combinations(edges, size):
            if is_contraction_critical(g, subset, parameter):
                return False
    return True


def brute_min_mono(
    g: Graph, h: int, budget: Optional[int] = None
) -> tuple[int, tuple[int, ...]]:
    """Global minimum of monochromatic edges over all h-colourings.

    Symmetry is cut by fixing colour 1 on vertex 0; the reported colouring is
    the lexicographically least optimum under that normalisation.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    budget = configured_budget(budget)
    if g.n > 0 and h ** (g.n - 1) > budget:
        raise CapacityExceededError(
            f"{h}^{g.n - 1} colourings exceed the oracle budget of {budget}",
            needed=h ** (g.n - 1),
            budget=budget,
        )
    if g.n == 0:
        return 0, ()

    adj = g.adj
    best = g.edge_count() + 1
    best_col: tuple[int, ...] = ()
    colour = [0] * g.n
    colour[0] = 1

    def rec(v: int, count: int) -> None:
        nonlocal best, best_col
        if count >= best:
            return
        if v == g.n:
            best, best_col = count, tuple(colour)
            return
        for c in range(1, h + 1):
            same = sum(1 for w in range(v) if colour[w] == c and adj[v] >> w & 1)
            colour[v] = c
            rec(v + 1, count + same)
        colour[v] = 0

    rec(1, 0)
    return best, best_col


def brute_mss(
    ell: int, a: Sequence[int], h: int, budget: Optional[int] = None
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimum sum of squared group sums over partitions of [ell] into h groups.

    Returns the best value and one optimal partition as a length-h tuple of
    index tuples (possibly empty groups).
    """
    if ell != len(a) or ell < 1:
        raise ValueError("tuple length must match ell >= 1")
    if h < 1:
        raise ValueError("h must be at least 1")
    budget = configured_budget(budget)
    if h ** ell > budget:
        raise CapacityExceededError(
            f"{h}^{ell} assignments exceed the oracle budget of {budget}",
            needed=h**ell,
            budget=budget,
        )
    best = None
    best_assign = None
    for assign in itertools.product(range(h), repeat=ell):
        sums = [0] * h
        for j, part in enumerate(assign):
            sums[part] += a[j]
        value = sum(s * s for s in sums)
        if best is None or value < best:
            best, best_assign = value, assign
    parts = tuple(
        tuple(j for j in range(ell) if best_assign[j] == i) for i in range(h)
    )
    return best, parts
