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
from .graph import Edge, Graph, bits
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
            # All remaining candidates are pairwise handled via recursion on
            # isolated vertices; take them all at once.
            iso = cand
            take = cur
            cnt = size
            for w in bits(iso):
                take |= 1 << w
                cnt += 1
            if cnt > best_size:
                best_mask, best_size = take, cnt
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


def _maximum_matching(g: Graph, left: frozenset[int]) -> dict[int, int]:
    """Kuhn's augmenting-path matching from the left side of a bipartition."""
    match: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in bits(g.adj[u]):
            if v in seen:
                continue
            seen.add(v)
            if v not in match or augment(match[v], seen):
                match[v] = u
                return True
        return False

    for u in sorted(left):
        augment(u, set())
    return match


def mu_bipartite(g: Graph, cert: Bipartition) -> ParameterValue:
    """Maximum matching of a bipartite graph via augmenting paths."""
    validate_bipartition(g, cert)
    match = _maximum_matching(g, cert.left)
    edges = frozenset((min(u, v), max(u, v)) for v, u in match.items())
    return ParameterValue("mu", len(edges), edges)


def alpha_bipartite(g: Graph, cert: Bipartition) -> ParameterValue:
    """alpha = n - mu on bipartite graphs, with an explicit independent set.

    The witness is built König-style: alternate from the unmatched left
    vertices, then take reachable-left plus unreachable-right.
    """
    validate_bipartition(g, cert)
    match = _maximum_matching(g, cert.left)  # right vertex -> left vertex
    matched_left = set(match.values())
    partner = {u: v for v, u in match.items()}  # left -> right

    reach_left = {u for u in cert.left if u not in matched_left}
    reach_right: set[int] = set()
    frontier = list(reach_left)
    while frontier:
        u = frontier.pop()
        for v in bits(g.adj[u]):
            if v in reach_right:
                continue
            if partner.get(u) == v:
                continue  # only non-matching edges leave the left side
            reach_right.add(v)
            w = match.get(v)
            if w is not None and w not in reach_left:
                reach_left.add(w)
                frontier.append(w)

    cover = (set(cert.left) - reach_left) | reach_right
    independent = frozenset(range(g.n)) - cover
    if len(independent) != g.n - len(match):
        raise CertificateError(
            f"König cover leaves {len(independent)} vertices, matching has {len(match)} edges"
        )
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
    if pv.kind == "alpha":
        wit = pv.witness
        return len(wit) == pv.value and all(
            not g.has_edge(u, v) for u in wit for v in wit if u < v
        )
    if pv.kind == "omega":
        wit = pv.witness
        return len(wit) == pv.value and all(
            g.has_edge(u, v) for u in wit for v in wit if u < v
        )
    if pv.kind == "chi":
        col = pv.witness
        if len(col) != g.n:
            return False
        used = len(set(col))
        return used <= pv.value and all(col[u] != col[v] for u, v in g.edges())
    if pv.kind == "mu":
        edges = pv.witness
        if len(edges) != pv.value:
            return False
        seen: set[int] = set()
        for u, v in edges:
            if not g.has_edge(u, v) or u in seen or v in seen:
                return False
            seen.update((u, v))
        return True
    if pv.kind == "tau":
        cover = pv.witness
        return len(cover) == pv.value and all(
            u in cover or v in cover for u, v in g.edges()
        )
    raise ValueError(f"unknown parameter kind {pv.kind!r}")
