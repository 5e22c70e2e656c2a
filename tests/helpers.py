"""Checks and constructions that only the tests use.

:func:`has_property_one` is the test oracle for the paper's size-rank
Property 1 of colourings over a cotree.  pytest rewrites the asserts of
test modules into checks that ``python -O`` keeps, but not those of this
module, so nothing here checks with ``assert``.
"""

import itertools
from typing import Sequence

from blockerlab.cotree import Cotree, CotreeLeaf
from blockerlab.graph import Graph, contract_edges, disjoint_union, validate_edge_set


def labelled_graphs(n: int):
    """Every graph on the vertices ``0 .. n-1``, one per edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if chosen >> i & 1])


def forest(g: Graph, s) -> bool:
    """True iff the edges ``s`` of ``g`` form no cycle: contracting an
    acyclic edge set removes one vertex per edge."""
    return contract_edges(g, s)[0].n == g.n - len(validate_edge_set(g, s))


def join(g: Graph, h: Graph) -> Graph:
    """``g`` and ``h`` side by side, ``h`` numbered after ``g``, with every
    vertex of one adjacent to every vertex of the other."""
    return disjoint_union(g.complement(), h.complement()).complement()


# -- structural property of rank-aligned colourings ----------------------------


def has_property_one(t: Cotree, c: Sequence[int]) -> bool:
    """Check size-rank colour alignment at every union node.

    At a union node the i-th largest colour class of one child must share its
    colour with the i-th largest class of the other, for every rank where
    both are non-empty.  Ties in class sizes are resolved existentially: the
    check passes if any size-respecting rank assignment works.
    """
    if len(c) != t.n:
        raise ValueError("colouring must be total")
    # Colour histograms of every subtree, built in one postorder pass; a
    # child's histogram is dropped once its parent has merged it.
    hists: list = [None] * len(t.postorder)
    for node in t.postorder:
        if isinstance(node, CotreeLeaf):
            hists[node.index] = {c[node.vertex]: 1}
            continue
        hist_q, hist_r = hists[node.left.index], hists[node.right.index]
        hists[node.left.index] = hists[node.right.index] = None
        if node.label == 0 and not _ranks_alignable(hist_q, hist_r):
            return False
        for colour, count in hist_r.items():
            hist_q[colour] = hist_q.get(colour, 0) + count
        hists[node.index] = hist_q
    return True


def _rank_interval(hist: dict[int, int], colour: int) -> tuple[int, int]:
    s = hist[colour]
    bigger = sum(1 for x in hist.values() if x > s)
    at_least = sum(1 for x in hist.values() if x >= s)
    return bigger + 1, at_least


def _ranks_alignable(hist_q: dict[int, int], hist_r: dict[int, int]) -> bool:
    m = min(len(hist_q), len(hist_r))
    shared = set(hist_q) & set(hist_r)
    if len(shared) != m:
        return False
    intervals = []
    for colour in shared:
        lo_q, hi_q = _rank_interval(hist_q, colour)
        lo_r, hi_r = _rank_interval(hist_r, colour)
        lo, hi = max(lo_q, lo_r), min(hi_q, hi_r, m)
        if lo > hi:
            return False
        intervals.append((hi, lo))
    # Greedy system of distinct ranks over intervals.
    taken: set[int] = set()
    for hi, lo in sorted(intervals):
        rank = next((x for x in range(lo, hi + 1) if x not in taken), None)
        if rank is None:
            return False
        taken.add(rank)
    return True
