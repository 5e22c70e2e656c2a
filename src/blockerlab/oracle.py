"""Brute-force ground truth: blocker search, colouring search, partition search.

These routines anchor the polynomial algorithms and the gadget constructions,
so they must be simple enough to be obviously correct and must fail loudly
(``CapacityExceededError``) instead of degrading when an instance is too large
for exhaustive search.  The blocker search, :func:`layered_search`, enumerates
subsets by size and skips only layers whose outcome is already decided: no
set of fewer than ``d`` elements lowers a parameter by ``d``, (delete-edges,
alpha) never drops, and for a monotone pair a miss in the top layer is a no.
Its budget counts every layer up to ``k``, and nothing when ``k < d``.  It
takes the evaluator of each subset as an argument, so the bipartite blocker's
``k <= 2d`` enumeration is the same search with that module's split
evaluator.

In :func:`brute_blocker` each subset is decided against the target
``value_before - d`` on masks built once per query (:func:`_evaluator`): the
neighbour masks of the graph and of its complement.  Deleting vertices
shrinks the vertex mask the search runs in, and deleting edges ORs them into
the complement masks.  Contracting merges each component of the contracted
edges into its least vertex without renumbering (:func:`graph._merge`): the
other members leave the vertex mask, and only omega and chi rebuild the
complement masks.  A search stops as soon as it finds an independent set or
a clique above the target, so a miss costs little; a hit is searched to the
end, so a reported ``value_after`` is exact.  The exact solvers' vertex
ceilings are checked on the input graph, which no operation makes larger.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import check_capacity
from .graph import (
    Graph,
    _merge,
    contract_edges,
    delete_edges,
    delete_vertices,
    to_mask,
    validate_edge_set,
)
from .parameters import _max_independent_mask, _min_colouring, alpha_exact, chi_exact, omega_exact

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


# A NamedTuple body cannot define __new__, so a validating record subclasses one.
class BlockerQuery(NamedTuple("BlockerQuery", [
        ("graph", Graph), ("operation", str), ("parameter", str), ("k", int), ("d", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.operation not in OPERATIONS:
            raise ValueError(f"unknown operation {self.operation!r}")
        if self.parameter not in PARAMETERS:
            raise ValueError(f"unknown parameter {self.parameter!r}")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        return self


class OracleAnswer(NamedTuple):
    answer: bool
    witness: Optional[frozenset]
    minimal: bool
    value_before: int
    value_after: Optional[int]


def parameter_value(g: Graph, parameter: str) -> int:
    # Built per call, so a solver that a tracer rebinds in this module is seen.
    return {"alpha": alpha_exact, "omega": omega_exact, "chi": chi_exact}[parameter](g).value


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


def brute_blocker(q: BlockerQuery, budget: Optional[int] = None) -> OracleAnswer:
    """Exhaustive blocker decision with a minimum-size witness, on the masks
    of :func:`_evaluator`."""
    return layered_search(q, lambda: _exact(q), budget)


def layered_search(q: BlockerQuery, prepare: Callable[[], tuple[int, Callable]],
                   budget: Optional[int] = None) -> OracleAnswer:
    """The blocker search over subsets of the query's ground set.

    ``prepare()`` returns the value before and the evaluator
    ``value_after(subset, target)``, exact when at most ``target`` and
    anything above it otherwise.  It runs after the capacity check, which
    counts every layer up to ``k``, so no solver sees an oversized query;
    with ``k < d`` it runs only for the value before.

    Subsets are enumerated by increasing size and lexicographically within a
    size, so the reported witness is deterministic: the lexicographically
    least among the minimum-size ones.  The empty set changes nothing, so
    with ``d >= 1`` the scan starts at size 1.  Three layer rules skip work
    without changing any answer:

    * a query with ``k < d`` is a no without a scan, and charges no subsets
      to the budget: deleting a vertex or an edge lowers alpha, omega or chi
      by at most one, and contracting a set of ``s`` edges merges at most
      ``s`` pairs of vertices, each merge lowering them by at most one;
    * deleting edges never lowers alpha, so (delete-edges, alpha) is a no
      without a scan;
    * for a monotone pair a hit of size ``s <= top = min(k, |ground|)``
      extends to one of size ``top``, so the top layer is scanned first and
      a miss there is a no.  After a hit the smaller layers are scanned in
      order, and the top layer's first hit answers if none of them hits.

    A subset is a hit when its value is at most ``value_before - d``.
    """
    if q.k < q.d:
        return _answer(None, True, prepare()[0])
    ground = _ground_set(q.graph, q.operation)
    top = min(q.k, len(ground))
    check_capacity(sum(math.comb(len(ground), i) for i in range(top + 1)), "subsets", budget)
    before, value_after = prepare()
    target = before - q.d
    pair = (q.operation, q.parameter)
    last = None  # the top layer's first hit, when it was scanned ahead
    if pair == ("delete-edges", "alpha"):
        top = 0
    elif pair in _MONOTONE and top > 1:
        last = _first_hit(value_after, ground, top, target)
        if last is None:
            top = 0
    for size in range(1, top + (last is None)):
        hit = _first_hit(value_after, ground, size, target)
        if hit is not None:
            return _answer(hit, True, before)
    return _answer(last, True, before)


def brute_blocker_decision(q: BlockerQuery) -> OracleAnswer:
    """Decision-only variant for monotone (operation, parameter) pairs.

    When growing the set can only shrink the parameter, a witness of size
    ``<= k`` exists iff one of size exactly ``min(k, |ground|)`` does, so a
    single combination layer decides the instance, and a query with
    ``k < d`` is a no without one (the bound of :func:`layered_search`).
    The witness is not minimum-size.

    It stays next to :func:`brute_blocker` because it scans that one layer
    only, where :func:`brute_blocker` goes on to scan every smaller layer
    after a hit in the top one, to find a minimum witness.  On the cograph
    sweep of acceptance criterion 06 this takes about a second, where
    :func:`brute_blocker` had not finished after ten minutes.
    """
    if (q.operation, q.parameter) not in _MONOTONE:
        raise ValueError(
            f"({q.operation}, {q.parameter}) is not monotone; use brute_blocker"
        )
    if q.k < q.d:
        return _answer(None, False, parameter_value(q.graph, q.parameter))
    ground = _ground_set(q.graph, q.operation)
    top = min(q.k, len(ground))
    check_capacity(math.comb(len(ground), top), "subsets")
    before, value_after = _exact(q)
    return _answer(_first_hit(value_after, ground, top, before - q.d), False, before)


def _exact(q: BlockerQuery) -> tuple[int, Callable]:
    """The exact value before, then the evaluator: the solver's vertex
    ceiling refuses a large graph before its masks are built."""
    return parameter_value(q.graph, q.parameter), _evaluator(q.graph, q.operation, q.parameter)


def _first_hit(value_after: Callable, ground: list, size: int, target: int) -> Optional[tuple]:
    """The lexicographically first ``size``-subset of ``ground`` whose
    operation takes the parameter to ``target`` or below, with that value."""
    for subset in itertools.combinations(ground, size):
        after = value_after(subset, target)
        if after <= target:
            return subset, after
    return None


def _evaluator(g: Graph, operation: str, parameter: str) -> Callable[[tuple, int], int]:
    """``value_after(subset, target)`` for subsets of ``g``'s ground set.

    It returns the parameter of the graph that the operation on ``subset``
    leaves when that value is at most ``target``, and otherwise some value
    above ``target`` and at most the true one.  It works on the neighbour
    masks of ``g`` and of its complement, built once here: alpha is a maximum
    independent set of the first, omega one of the second, so each search
    stops at a set above ``target``; chi searches colourings only when that
    clique is not above ``target``.  The ground set is ``g``'s, so subsets
    are not validated.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    co = [full & ~(m | 1 << v) for v, m in enumerate(adj)]

    def value_after(subset, target: int) -> int:
        a, c, universe = adj, co, full
        if operation == "delete-vertices":
            universe = full & ~to_mask(subset)
        elif operation == "delete-edges":
            a, c = list(adj), co[:]
            for u, v in subset:
                a[u] &= ~(1 << v)
                a[v] &= ~(1 << u)
                c[u] |= 1 << v
                c[v] |= 1 << u
        else:
            a, universe, _ = _merge(adj, subset)
            if parameter != "alpha":
                c = [universe & ~(m | 1 << v) for v, m in enumerate(a)]
        if parameter == "alpha":
            return _max_independent_mask(a, universe, target).bit_count()
        clique = _max_independent_mask(c, universe, target).bit_count()
        if parameter == "omega" or clique > target:
            return clique
        return _min_colouring(a, universe, clique)[0]

    return value_after


def _answer(hit: Optional[tuple], minimal: bool, before: int) -> OracleAnswer:
    if hit is None:
        return OracleAnswer(False, None, False, before, None)
    subset, after = hit
    return OracleAnswer(True, frozenset(subset), minimal, before, after)


def min_critical_size(g: Graph, operation: str, parameter: str, d: int) -> Optional[int]:
    """Smallest set size achieving the drop, or None if no set at all does."""
    ground = _ground_set(g, operation)
    answer = brute_blocker(BlockerQuery(g, operation, parameter, len(ground), d))
    return len(answer.witness) if answer.answer else None


def is_contraction_critical(g: Graph, s, parameter: str) -> bool:
    """Contracting ``s`` lowers the parameter, decided at the target
    ``value_before - 1``."""
    s = validate_edge_set(g, s)
    before = parameter_value(g, parameter)
    return _evaluator(g, "contract", parameter)(s, before - 1) < before


def is_minimal_critical(g: Graph, s, parameter: str) -> bool:
    """Critical, and no proper subset is critical.

    ``s`` and its non-empty proper subsets, ``2^|s| - 1`` sets, are charged
    to the subset budget before the value before is solved; the empty set
    contracts nothing, so it is never critical.
    """
    edges = sorted(validate_edge_set(g, s))
    check_capacity(2 ** len(edges) - 1, "subsets")
    before = parameter_value(g, parameter)
    value_after = _evaluator(g, "contract", parameter)

    def critical(subset) -> bool:
        return value_after(subset, before - 1) < before

    if not critical(edges):
        return False
    return not any(
        critical(subset)
        for size in range(1, len(edges))
        for subset in itertools.combinations(edges, size)
    )


def brute_min_mono(g: Graph, h: int) -> tuple[int, tuple[int, ...]]:
    """Global minimum of monochromatic edges over all h-colourings.

    Symmetry is cut by fixing colour 1 on vertex 0; the reported colouring is
    the lexicographically least optimum under that normalisation.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    if g.n == 0:
        return 0, ()
    check_capacity(h ** (g.n - 1), "colourings")

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


def brute_mss(ell: int, a: Sequence[int], h: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimum sum of squared group sums over partitions of [ell] into h groups.

    Returns the best value and one optimal partition as a length-h tuple of
    index tuples (possibly empty groups).
    """
    if ell != len(a) or ell < 1:
        raise ValueError("tuple length must match ell >= 1")
    if h < 1:
        raise ValueError("h must be at least 1")
    check_capacity(h**ell, "assignments")
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
