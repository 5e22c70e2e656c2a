"""Polynomial-time contraction blocker for the independence number on
connected bipartite graphs, for a small fixed drop ``d``.

The solver dispatches on instance shape:

1. tiny graphs (``n <= 2d+1``) go to the exhaustive oracle;
2. with ``k >= 2d+1`` the answer is always yes: a tree with ``2d`` or
   ``2d+1`` edges grown around a maximum matching contracts to a single
   vertex whose removal leaves a graph with alpha at most ``alpha - d - 1``;
3. otherwise ``k <= 2d`` and plain subset enumeration is constant-degree
   polynomial, refused with :class:`CapacityExceededError` when the number of
   edge sets passes the configured budget; alpha of each contracted graph is
   computed by splitting an independent set into contracted and untouched
   vertices, the untouched part being bipartite.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from .errors import CertificateError, check_capacity
from .graph import Edge, Graph, bits, contract_edges, to_mask, validate_edge_set
from .oracle import BlockerQuery, _subset_count, brute_blocker
from .parameters import alpha_bipartite, bipartite_matching, mu_bipartite
from .recognizers import Bipartition, NotInClass, recognize_bipartite, validate_bipartition

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


def alpha_after_contraction_bipartite(g: Graph, s, cert: Bipartition) -> int:
    """alpha of ``g`` with the edges of ``s`` contracted.

    Splits every independent set of the contracted graph into merged
    vertices ``U'`` and untouched vertices outside ``N(U')``; the untouched
    side is an induced subgraph of the bipartite input, so its alpha is its
    size less a maximum matching.
    """
    s = validate_edge_set(g, s)
    validate_bipartition(g, cert)
    _, comp = contract_edges(g, s)
    touched = to_mask(v for e in s for v in e)
    classes: dict[int, tuple[int, int]] = {}  # merged vertex -> (its class, their neighbours)
    for v in bits(touched):
        cls, nbrs = classes.get(comp[v], (0, 0))
        classes[comp[v]] = (cls | 1 << v, nbrs | g.adj[v])
    merged = [(cls, nbrs & ~cls) for cls, nbrs in classes.values()]
    untouched = ((1 << g.n) - 1) & ~touched
    left = to_mask(cert.left)

    best = 0
    for r in range(len(merged) + 1):
        for chosen in combinations(merged, r):
            inside = nbrs = 0
            for cls, around in chosen:
                inside |= cls
                nbrs |= around
            if inside & nbrs:
                continue  # two chosen classes are adjacent
            rest = untouched & ~nbrs
            mate, _ = bipartite_matching(g.adj, rest & left, rest & ~left)
            best = max(best, r + rest.bit_count() - len(mate) // 2)
    return best


def solve_bipartite_contraction_blocker(g: Graph, k: int, d: int) -> BlockerOutcome:
    """Decide whether ``<= k`` contractions drop alpha by at least ``d``."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > MAX_SUPPORTED_D:
        raise ValueError(f"d <= {MAX_SUPPORTED_D} supported, got {d}")
    if k < 0:
        raise ValueError("k must be non-negative")
    cert = recognize_bipartite(g)
    if isinstance(cert, NotInClass):
        raise CertificateError(f"input is not bipartite ({cert.reason})")
    if not g.is_connected():
        raise CertificateError("input must be connected")

    alpha = alpha_bipartite(g, cert).value

    if g.n <= 2 * d + 1:
        answer = brute_blocker(BlockerQuery(g, "contract", "alpha", k, d))
        witness = None
        if answer.answer:
            witness = ContractionWitness(answer.witness, answer.value_after)
        return BlockerOutcome(answer.answer, witness, alpha)

    if k >= 2 * d + 1:
        matching = mu_bipartite(g, cert).witness
        tree = build_contraction_tree(g, matching, d)
        after = alpha_after_contraction_bipartite(g, tree, cert)
        if after > alpha - d:
            raise CertificateError(
                f"contraction tree leaves alpha {after}, above the target {alpha - d}"
            )
        return BlockerOutcome(True, ContractionWitness(tree, after), alpha)

    # k <= 2d: enumeration over subsets of at most k edges, smallest first.
    edges = g.edges()
    check_capacity(_subset_count(len(edges), k), "edge sets")
    target = alpha - d
    for size in range(1, min(k, len(edges)) + 1):
        for subset in combinations(edges, size):
            after = alpha_after_contraction_bipartite(g, subset, cert)
            if after <= target:
                return BlockerOutcome(
                    True, ContractionWitness(frozenset(subset), after), alpha
                )
    return BlockerOutcome(False, None, alpha)

