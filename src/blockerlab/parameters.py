"""Exact graph parameters with certifying witnesses.

Every routine returns a :class:`ParameterValue` whose witness certifies the
value independently of the solver that produced it: an independent set for
alpha, a clique for omega, a proper colouring for chi, a matching for mu and
a vertex cover for tau.  The general solvers are branch and bound over
bitmasks; the bipartite and chordal specialisations are polynomial and are
cross-checked against the exact solvers in the test suite.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import CertificateError, check_capacity
from .graph import Edge, Graph, bits, to_mask
from .recognizers import (
    Bipartition,
    EliminationOrder,
    validate_bipartition,
    validate_elimination_order,
)

ALPHA_OMEGA_VERTEX_CEILING = 40
CHI_VERTEX_CEILING = 20


class ParameterValue(NamedTuple):
    kind: str  # alpha | omega | chi | mu | tau
    value: int
    witness: Union[frozenset[int], frozenset[Edge], tuple[int, ...]]


def _max_independent_mask(adj: tuple[int, ...], universe: int) -> int:
    """Branch and bound for a maximum independent set inside ``universe``."""
    best_mask = 0
    best_size = 0

    # Greedy seed: repeatedly take a minimum-degree vertex.
    cand = universe
    seed = 0
    while cand:
        v = min(bits(cand), key=lambda x: (adj[x] & cand).bit_count())
        seed |= 1 << v
        cand &= ~(adj[v] | (1 << v))
    best_mask, best_size = seed, seed.bit_count()

    def rec(cand: int, cur: int, size: int) -> None:
        nonlocal best_mask, best_size
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best_mask, best_size = cur, size
            return
        v = max(bits(cand), key=lambda x: (adj[x] & cand).bit_count())
        if (adj[v] & cand) == 0:
            # No edge is left among the candidates, and the bound above
            # says taking them all beats the best so far.
            best_mask, best_size = cur | cand, size + cand.bit_count()
            return
        rec(cand & ~(adj[v] | (1 << v)), cur | (1 << v), size + 1)
        rec(cand & ~(1 << v), cur, size)

    rec(universe, 0, 0)
    return best_mask


def alpha_exact(g: Graph) -> ParameterValue:
    """Maximum independent set by branch and bound."""
    check_capacity(g.n, "vertices", ALPHA_OMEGA_VERTEX_CEILING)
    mask = _max_independent_mask(g.adj, (1 << g.n) - 1)
    return ParameterValue("alpha", mask.bit_count(), frozenset(bits(mask)))


def omega_exact(g: Graph) -> ParameterValue:
    """Maximum clique, as an independent set of the complement."""
    check_capacity(g.n, "vertices", ALPHA_OMEGA_VERTEX_CEILING)
    comp = g.complement()
    mask = _max_independent_mask(comp.adj, (1 << g.n) - 1)
    return ParameterValue("omega", mask.bit_count(), frozenset(bits(mask)))


def chi_exact(g: Graph) -> ParameterValue:
    """Chromatic number by branch and bound over colour assignments."""
    check_capacity(g.n, "vertices", CHI_VERTEX_CEILING)
    if g.n == 0:
        return ParameterValue("chi", 0, ())

    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    # Greedy upper bound.
    greedy = [0] * g.n
    for v in order:
        taken = {greedy[w] for w in bits(g.adj[v]) if greedy[w]}
        c = 1
        while c in taken:
            c += 1
        greedy[v] = c
    best = max(greedy)
    best_col = list(greedy)

    lower = omega_exact(g).value

    colour = [0] * g.n

    def rec(i: int, used: int) -> None:
        nonlocal best, best_col
        if used >= best:
            return
        if i == g.n:
            best = used
            best_col = list(colour)
            return
        v = order[i]
        taken = 0
        for w in bits(g.adj[v]):
            if colour[w]:
                taken |= 1 << colour[w]
        for c in range(1, min(used + 1, best - 1) + 1):
            if not taken >> c & 1:
                colour[v] = c
                rec(i + 1, max(used, c))
                colour[v] = 0
                if best == lower:
                    return

    rec(0, 0)
    return ParameterValue("chi", best, tuple(best_col))


def bipartite_matching(adj: tuple[int, ...], left: int, right: int) -> tuple[dict[int, int], int]:
    """Maximum matching of the bipartite graph on the masks ``left`` and
    ``right`` as ``mate`` (both directions), and a minimum vertex cover mask.

    Hopcroft-Karp (SIAM J. Comput. 2(4), 1973): a BFS from the free left
    vertices layers the graph, then a DFS on an explicit stack augments along
    disjoint shortest paths.  A BFS that reaches no free right vertex has
    reached the set Z of König's cover ``(left - Z) | (right & Z)``.
    """
    mate: dict[int, int] = {}
    matched = 0
    while True:
        # rights[i]: the right vertices 2i + 1 steps from a free left vertex.
        layer = seen = roots = left & ~matched
        rights = []
        free = 0
        while layer and not free:
            reach = 0
            for u in bits(layer):
                reach |= adj[u]
            reach &= right & ~seen
            rights.append(reach)
            free = reach & ~matched
            layer = 0
            for v in bits(reach & matched):
                layer |= 1 << mate[v]
            seen |= reach | layer
        if not free:
            return mate, (left & ~seen) | (right & seen)
        rights[-1] = free
        dead = 0
        for root in bits(roots):
            stack = [root]
            while stack:
                cand = adj[stack[-1]] & rights[len(stack) - 1] & ~dead
                if not cand:
                    stack.pop()
                    continue
                v = (cand & -cand).bit_length() - 1
                dead |= 1 << v
                if len(stack) < len(rights):
                    stack.append(mate[v])
                    continue
                # Flip the path: each stacked vertex takes the right vertex
                # that led on from it, the last one the free vertex v.
                matched |= 1 << root | 1 << v
                for u in reversed(stack):
                    w = mate.get(u, -1)
                    mate[u] = v
                    mate[v] = u
                    v = w
                break


def koenig_pair(g: Graph, cert: Bipartition) -> tuple[ParameterValue, ParameterValue]:
    """A maximum matching and a minimum vertex cover of one size (König)."""
    validate_bipartition(g, cert)
    mate, cover = bipartite_matching(g.adj, to_mask(cert.left), to_mask(cert.right))
    edges = frozenset((u, v) for u, v in mate.items() if u < v)
    if cover.bit_count() != len(edges):
        raise CertificateError(f"König cover of {cover.bit_count()}, matching of {len(edges)}")
    tau = ParameterValue("tau", len(edges), frozenset(bits(cover)))
    return ParameterValue("mu", len(edges), edges), tau


def mu_bipartite(g: Graph, cert: Bipartition) -> ParameterValue:
    """Maximum matching of a bipartite graph."""
    return koenig_pair(g, cert)[0]


def alpha_bipartite(g: Graph, cert: Bipartition) -> ParameterValue:
    """alpha = n - tau on any graph: the complement of a minimum vertex cover."""
    independent = frozenset(range(g.n)) - koenig_pair(g, cert)[1].witness
    return ParameterValue("alpha", len(independent), independent)


def alpha_chordal(g: Graph, cert: EliminationOrder) -> ParameterValue:
    """Greedy along a perfect elimination order is maximum on chordal graphs."""
    validate_elimination_order(g, cert)
    chosen: set[int] = set()
    blocked = 0
    for v in cert.order:
        if not blocked >> v & 1:
            chosen.add(v)
            blocked |= g.adj[v] | (1 << v)
    return ParameterValue("alpha", len(chosen), frozenset(chosen))


def tau_from_alpha(g: Graph, a: ParameterValue) -> ParameterValue:
    """Minimum vertex cover as the complement of a maximum independent set."""
    if a.kind != "alpha" or not isinstance(a.witness, frozenset) or not validate_witness(g, a):
        raise CertificateError("tau_from_alpha needs a certified alpha value")
    cover = frozenset(range(g.n)) - a.witness
    return ParameterValue("tau", g.n - a.value, cover)


def validate_witness(g: Graph, pv: ParameterValue) -> bool:
    """Re-validate a witness independently of the solver that produced it."""
    if pv.kind in ("alpha", "omega", "tau"):
        wit = pv.witness
        if len(wit) != pv.value or not all(0 <= v < g.n for v in wit):
            return False
        inside = to_mask(wit)
        if pv.kind == "alpha":
            return not any(g.adj[v] & inside for v in wit)
        if pv.kind == "omega":
            return all(inside & ~g.adj[v] == 1 << v for v in wit)
        # A vertex cover leaves no edge with both ends outside it.
        outside = ((1 << g.n) - 1) & ~inside
        return not any(g.adj[v] & outside for v in bits(outside))
    if pv.kind == "chi":
        col = pv.witness
        if len(col) != g.n or len(set(col)) > pv.value:
            return False
        return all(col[u] != col[v] for u, v in g.edges())
    if pv.kind == "mu":
        ends = [v for e in pv.witness for v in e]
        if len(pv.witness) != pv.value or len(set(ends)) != len(ends):
            return False
        return all(0 <= v < g.n for v in ends) and all(g.has_edge(u, v) for u, v in pv.witness)
    raise ValueError(f"unknown parameter kind {pv.kind!r}")
