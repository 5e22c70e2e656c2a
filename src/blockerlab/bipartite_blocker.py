"""Polynomial-time contraction blocker for the independence number on
connected bipartite graphs, for a small fixed drop ``d``.

The solver has two routes:

1. with ``k >= 2d+1`` on at least ``2d+2`` vertices the answer is always
   yes: a tree with ``2d`` or ``2d+1`` edges grown around a maximum matching
   contracts to a single vertex whose removal leaves a graph with alpha at
   most ``alpha - d - 1``;
2. otherwise the oracle's layered search (:func:`oracle.layered_search`) over
   sets of at most ``k`` edges.  One contraction lowers alpha by at most
   one, so the search splits only sets of ``d`` to ``k`` edges, and answers
   ``k < d`` no at any size, with no scan and no charge.  For
   ``d <= k <= 2d`` it is constant-degree polynomial, and refused
   with :class:`CapacityExceededError` when the number of subsets passes the
   configured budget, or with :class:`ValueError` when ``d`` passes
   :data:`MAX_SUPPORTED_D`; alpha of each contracted graph is computed by
   splitting an independent set into contracted and untouched vertices, the
   untouched part being bipartite.  The split is decided
   against the search's target ``alpha - d``: on an edge set that misses it
   stops at the first independent set above the target, and only a hit is
   split to the end, so a witness's ``claimed_alpha_after`` is exact.
   Graphs with at most ``2d+1`` vertices take this route for every ``k``:
   they have at most ``d(d+1)`` edges.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from .certificates import Bipartition, NotInClass
from .errors import CertificateError
from .graph import Edge, Graph, _merge, bits, to_mask, validate_edge_set
from .oracle import BlockerQuery, OracleAnswer, layered_search
from .parameters import bipartite_matching, koenig_pair
from .recognizers import recognize_bipartite, validate_bipartition

# The budget counts edge sets, but the split tries up to 2^k sets of merged
# vertices on each one when the enumeration route scans (k >= d): work that
# no budget counts, so d stays capped there until a meter charges it.  The
# tree route's one split sees one merged vertex, and k < d needs no split.
MAX_SUPPORTED_D = 3


class ContractionWitness(NamedTuple):
    edges: frozenset[Edge]
    claimed_alpha_after: int


class BlockerOutcome(NamedTuple):
    answer: bool
    witness: Optional[ContractionWitness]
    alpha_before: int


def build_contraction_tree(g: Graph, matching: frozenset[Edge], d: int) -> frozenset[Edge]:
    """Grow the tree that certifies yes-instances for ``k >= 2d+1``.

    Starting from one matching edge, repeatedly attach the lowest-index
    outside neighbour ``w`` of the tree via its lowest-index tree neighbour,
    together with ``w``'s matching partner when ``w`` is matched.  Stops once
    the tree has at least ``2d`` edges, so it ends with ``2d`` or ``2d+1``.
    """
    if not g.is_connected():
        raise ValueError("the contraction tree needs a connected graph")
    matching = validate_edge_set(g, matching)
    if not matching:
        raise ValueError("the matching must be non-empty")
    if g.n < 2 * d + 2:
        raise ValueError("need at least 2d+2 vertices")
    partner: dict[int, int] = {}
    for u, v in matching:
        if u in partner or v in partner:
            raise ValueError("matching edges share a vertex")
        partner[u] = v
        partner[v] = u

    u, v = min(matching)
    tree_vertices = {u, v}
    tree_edges = {(u, v)}
    while len(tree_edges) <= 2 * d - 1:
        w = min(
            x
            for t in tree_vertices
            for x in bits(g.adj[t])
            if x not in tree_vertices
        )
        w_prime = min(x for x in bits(g.adj[w]) if x in tree_vertices)
        tree_vertices.add(w)
        tree_edges.add((min(w, w_prime), max(w, w_prime)))
        mate = partner.get(w)
        if mate is not None:
            tree_vertices.add(mate)
            tree_edges.add((min(w, mate), max(w, mate)))
    return frozenset(tree_edges)


def alpha_after_contraction_bipartite(g: Graph, s, cert: Bipartition,
                                      target: Optional[int] = None) -> int:
    """alpha of ``g`` with the edges of ``s`` contracted.

    Splits every independent set of the contracted graph into merged
    vertices ``U'`` and untouched vertices outside ``N(U')``; the untouched
    side is an induced subgraph of the bipartite input, so its alpha is its
    size less a maximum matching.  The merged vertices and their
    neighbourhoods are read from the masks of :func:`graph._merge`, which
    keep the indices of ``g``.

    With a ``target`` the value is exact when it is at most ``target``;
    otherwise the split stops at the first set ``U'`` whose independent set
    is above ``target`` and returns that size, which lies above ``target``
    and at most the true value.  Without one the value is always exact.
    """
    s = validate_edge_set(g, s)
    validate_bipartition(g, cert)
    adj, universe, _ = _merge(g.adj, s)
    touched = to_mask(v for e in s for v in e)
    # The merged vertices, each as a mask with its neighbours.
    merged = [(1 << v, adj[v]) for v in bits(touched & universe)]
    untouched = ((1 << g.n) - 1) & ~touched
    left = to_mask(cert.left)

    best = 0
    for r in range(len(merged) + 1):
        for chosen in combinations(merged, r):
            inside = nbrs = 0
            for vertex, around in chosen:
                inside |= vertex
                nbrs |= around
            if inside & nbrs:
                continue  # two chosen merged vertices are adjacent
            rest = untouched & ~nbrs
            mate, _ = bipartite_matching(g.adj, rest & left, rest & ~left)
            best = max(best, r + rest.bit_count() - len(mate) // 2)
            if target is not None and best > target:
                return best
    return best


def solve_bipartite_contraction_blocker(g: Graph, k: int, d: int) -> BlockerOutcome:
    """Decide whether ``<= k`` contractions drop alpha by at least ``d``."""
    query = BlockerQuery(g, "contract", "alpha", k, d)
    cert = recognize_bipartite(g)
    if isinstance(cert, NotInClass):
        raise CertificateError(f"input is not bipartite ({cert.reason})")
    if not g.is_connected():
        raise CertificateError("input must be connected")

    # One matching serves both routes: alpha = n - tau (König), and the
    # matching seeds the tree route's contraction tree.
    mu, tau = koenig_pair(g, cert)
    alpha = g.n - tau.value

    if k >= 2 * d + 1 and g.n >= 2 * d + 2:
        tree = build_contraction_tree(g, mu.witness, d)
        after = alpha_after_contraction_bipartite(g, tree, cert)
        if after > alpha - d:
            raise CertificateError(
                f"contraction tree leaves alpha {after}, above the target {alpha - d}"
            )
        return BlockerOutcome(True, ContractionWitness(tree, after), alpha)

    if k >= d > MAX_SUPPORTED_D:
        raise ValueError(f"d <= {MAX_SUPPORTED_D} supported, got {d}")

    # The oracle's search, each edge set decided by the split against the
    # search's target.  ``split`` looks the evaluator up in this module at
    # every call and passes ``target`` positionally, so a rebinding of its
    # name (the benchmark's spans) sees the calls and their arguments.
    def split(subset, target: int) -> int:
        return alpha_after_contraction_bipartite(g, subset, cert, target)

    return _outcome(layered_search(query, lambda: (alpha, split)))


def _outcome(answer: OracleAnswer) -> BlockerOutcome:
    witness = None
    if answer.answer:
        witness = ContractionWitness(answer.witness, answer.value_after)
    return BlockerOutcome(answer.answer, witness, answer.value_before)
