"""Exact graph parameters with certifying witnesses, and the one route table.

Every routine returns a :class:`ParameterValue` whose witness certifies the
value independently of the solver that produced it: an independent set for
alpha, a clique for omega, a proper colouring for chi, a matching for mu and
a vertex cover for tau.  The general solvers are branch and bound over
bitmasks, with size ceilings.  The class routes are polynomial and prove
their value with two validated witnesses of one size (:func:`certify_pair`):
König's matching and vertex cover, and an edge with the two sides as a
colouring, on bipartite graphs; an independent set and a clique cover along a
perfect elimination order on chordal graphs (Gavril); and a cotree clique and
colouring on cographs.  :func:`certified_value` picks the route from one
table, where tau is the complement of alpha and omega and chi are the sides
of one pair per class; ``param`` and ``verify`` both call it.
"""

from __future__ import annotations

from functools import cache
from operator import or_
from typing import NamedTuple, Optional, Union

from .certificates import Bipartition, CotreeCertificate, EliminationOrder, NotInClass
from .errors import CertificateError, GraphFormatError, check_capacity
from .graph import Edge, Graph, bits, is_independent, to_mask

ALPHA_OMEGA_VERTEX_CEILING = 40
CHI_VERTEX_CEILING = 20


class ParameterValue(NamedTuple):
    kind: str  # alpha | omega | chi | mu | tau, or theta: a clique cover (upper bound on alpha)
    value: int
    witness: Union[frozenset[int], frozenset[Edge], tuple[int, ...], tuple[frozenset[int], ...]]


def _max_independent_mask(adj: tuple[int, ...], universe: int, target: Optional[int] = None) -> int:
    """A maximum independent set inside ``universe``: a greedy seed, proved
    maximum by a greedy clique cover of its size when there is one, else
    improved by branch and bound.  Given a ``target``, it returns the first
    independent set it finds with more than ``target`` vertices instead, so
    only a maximum set of at most ``target`` vertices costs a full search."""
    stop = universe.bit_count() if target is None else target
    # Greedy seed: repeatedly take a minimum-degree vertex, the lowest on ties.
    cand = universe
    seed = 0
    while cand and seed.bit_count() <= stop:
        v, low = -1, universe.bit_length()
        rest = cand
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            deg = (adj[x] & cand).bit_count()
            if deg < low:
                v, low = x, deg
        seed |= 1 << v
        cand &= ~(adj[v] | (1 << v))
    best_mask, best_size = seed, seed.bit_count()
    if best_size > stop:
        return best_mask

    # Primal-dual exit: a greedy clique cover of ``universe`` (the lowest
    # vertex left, then its common neighbours, lowest first) with as many
    # cliques as the seed has vertices proves the seed maximum, since alpha
    # <= theta.  rec only ever replaces the best with a strictly larger set,
    # so it would return the seed too.
    rest, cliques = universe, 0
    while rest and cliques < best_size:
        grow = rest
        while grow:
            low = grow & -grow
            rest ^= low
            grow &= adj[low.bit_length() - 1]
        cliques += 1
    if not rest:
        return best_mask

    def rec(cand: int, cur: int, size: int) -> None:
        nonlocal best_mask, best_size
        if best_size > stop or size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best_mask, best_size = cur, size
            return
        # Branch on a maximum-degree vertex, the lowest on ties.
        v, high = -1, -1
        rest = cand
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            deg = (adj[x] & cand).bit_count()
            if deg > high:
                v, high = x, deg
        if high == 0:
            # No edge is left among the candidates, and the bound above
            # says taking them all beats the best so far.
            best_mask, best_size = cur | cand, size + cand.bit_count()
            return
        rec(cand & ~(adj[v] | (1 << v)), cur | (1 << v), size + 1)
        rec(cand & ~(1 << v), cur, size)

    rec(universe, 0, 0)
    return best_mask


def alpha_exact(g: Graph) -> ParameterValue:
    """Maximum independent set: a greedy set, returned as soon as a greedy
    clique cover of the same size proves it maximum, else branch and bound."""
    check_capacity(g.n, "vertices", ALPHA_OMEGA_VERTEX_CEILING)
    mask = _max_independent_mask(g.adj, (1 << g.n) - 1)
    return ParameterValue("alpha", mask.bit_count(), frozenset(bits(mask)))


def omega_exact(g: Graph) -> ParameterValue:
    """Maximum clique, as an independent set of the complement.

    A clique cover of the complement is a colouring of ``g``, so a greedy
    clique is returned at once when a greedy colouring with as many colours
    proves it maximum; otherwise branch and bound decides.
    """
    check_capacity(g.n, "vertices", ALPHA_OMEGA_VERTEX_CEILING)
    comp = g.complement()
    mask = _max_independent_mask(comp.adj, (1 << g.n) - 1)
    return ParameterValue("omega", mask.bit_count(), frozenset(bits(mask)))


def chi_exact(g: Graph) -> ParameterValue:
    """Chromatic number: a first-fit colouring in order of decreasing degree,
    returned when it uses omega colours, else branch and bound over colour
    assignments.  The lower bound omega usually comes from
    :func:`omega_exact`'s cover exit, without a search."""
    check_capacity(g.n, "vertices", CHI_VERTEX_CEILING)
    best, colouring = _min_colouring(g.adj, (1 << g.n) - 1, omega_exact(g).value)
    return ParameterValue("chi", best, tuple(colouring))


def _min_colouring(adj: tuple[int, ...], universe: int, lower: int) -> tuple[int, list[int]]:
    """A minimum proper colouring of the graph induced on ``universe``, given
    a clique of ``lower`` vertices in it: the number of colours, and each
    vertex's colour from 1 up (0 outside ``universe``)."""
    order = sorted(bits(universe), key=lambda v: -(adj[v] & universe).bit_count())
    # Greedy upper bound: each vertex joins the first colour class (a vertex
    # mask) that holds none of its neighbours, or opens a new one.
    best_col = [0] * len(adj)
    classes: list[int] = []
    for v in order:
        for c, members in enumerate(classes):
            if not members & adj[v]:
                classes[c] = members | 1 << v
                best_col[v] = c + 1
                break
        else:
            classes.append(1 << v)
            best_col[v] = len(classes)
    best = len(classes)
    if best == lower:
        # rec only tries colourings with fewer than best colours.
        return best, best_col

    colour = [0] * len(adj)

    def rec(i: int, used: int) -> None:
        nonlocal best, best_col
        if used >= best:
            return
        if i == len(order):
            best = used
            best_col = list(colour)
            return
        v = order[i]
        taken = 0
        for w in bits(adj[v]):
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
    return best, best_col


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
    from .recognizers import validate_bipartition

    validate_bipartition(g, cert)
    mate, cover = bipartite_matching(g.adj, to_mask(cert.left), to_mask(cert.right))
    edges = frozenset((u, v) for u, v in mate.items() if u < v)
    mu = ParameterValue("mu", len(edges), edges)
    return certify_pair(g, mu, ParameterValue("tau", cover.bit_count(), frozenset(bits(cover))))


def cograph_pair(g: Graph, cert: CotreeCertificate) -> tuple[ParameterValue, ParameterValue]:
    """A maximum clique and a minimum colouring of one size, from the cotree.

    Cographs are perfect, so a node's chromatic number is also its clique
    number: the clique takes both children's cliques at a join and the larger
    (the left on a tie) at a union.
    """
    from .cotree import fold, proper_colouring

    t = cert.cotree
    clique = fold(t, lambda v: 1 << v, lambda a, b: max(a, b, key=int.bit_count), or_)[-1]
    colouring = proper_colouring(t)
    omega = ParameterValue("omega", clique.bit_count(), frozenset(bits(clique)))
    return certify_pair(g, omega, ParameterValue("chi", len(set(colouring)), colouring))


def bipartite_pair(g: Graph, cert: Bipartition) -> tuple[ParameterValue, ParameterValue]:
    """A maximum clique and a minimum colouring of one size on a bipartite
    graph with at least one vertex: an edge and the two sides of ``cert``, or
    one vertex and one colour when there is no edge."""
    u = next((v for v in range(g.n) if g.adj[v]), None)
    if u is None:
        clique, colouring = frozenset({0}), (1,) * g.n
    else:
        w = (g.adj[u] & -g.adj[u]).bit_length() - 1
        clique, colouring = frozenset({u, w}), tuple(1 if v in cert.left else 2 for v in range(g.n))
    omega = ParameterValue("omega", len(clique), clique)
    return certify_pair(g, omega, ParameterValue("chi", len(set(colouring)), colouring))


def certify_pair(
    g: Graph, low: ParameterValue, high: ParameterValue
) -> tuple[ParameterValue, ParameterValue]:
    """Check a lower-bound and an upper-bound witness of one size.

    ``low`` is an independent set, a clique or a matching, ``high`` a clique
    cover, a proper colouring or a vertex cover.  On every graph alpha <=
    theta, omega <= chi and mu <= tau, so two valid witnesses of one size pin
    both values.  Returns the pair; raises :class:`CertificateError`.
    """
    for pv in (low, high):
        if not validate_witness(g, pv):
            raise CertificateError(f"{pv.kind} witness does not certify {pv.value}")
    if low.value != high.value:
        raise CertificateError(f"{low.kind} of {low.value}, {high.kind} of {high.value}")
    return low, high


def mu_bipartite(g: Graph, cert: Bipartition) -> ParameterValue:
    """Maximum matching of a bipartite graph."""
    return koenig_pair(g, cert)[0]


def alpha_bipartite(g: Graph, cert: Bipartition) -> ParameterValue:
    """alpha = n - tau on any graph: the complement of a minimum vertex cover."""
    independent = frozenset(range(g.n)) - koenig_pair(g, cert)[1].witness
    return ParameterValue("alpha", len(independent), independent)


def alpha_chordal(g: Graph, cert: EliminationOrder) -> ParameterValue:
    """Greedy along a perfect elimination order is maximum on chordal graphs.

    Each chosen vertex with its later neighbours is a clique, and these
    cliques cover the graph (Gavril 1972), so they prove the greedy set
    maximum.
    """
    from .recognizers import validate_elimination_order

    validate_elimination_order(g, cert)
    chosen, cliques = [], []
    blocked = done = 0
    for v in cert.order:
        done |= 1 << v
        if not blocked >> v & 1:
            chosen.append(v)
            blocked |= g.adj[v] | (1 << v)
            cliques.append(frozenset(bits(g.adj[v] & ~done)) | {v})
    alpha = ParameterValue("alpha", len(chosen), frozenset(chosen))
    return certify_pair(g, alpha, ParameterValue("theta", len(cliques), tuple(cliques)))[0]


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
            return is_independent(g.adj, inside)
        if pv.kind == "omega":
            return all(inside & ~g.adj[v] == 1 << v for v in wit)
        # A vertex cover leaves no edge with both ends outside it.
        return is_independent(g.adj, ((1 << g.n) - 1) & ~inside)
    if pv.kind == "theta":
        # Cliques, possibly overlapping, whose union is the vertex set.
        cliques = [ParameterValue("omega", len(c), c) for c in pv.witness]
        if len(cliques) != pv.value or not all(validate_witness(g, c) for c in cliques):
            return False
        return to_mask(v for c in pv.witness for v in c) == (1 << g.n) - 1
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


def certified_value(g: Graph, kind: str, klass: str = "auto") -> tuple[ParameterValue, str]:
    """The value of ``kind`` on ``g`` and the route that gave it.

    A class route answers when ``g`` is in the class (recognised lazily, at
    most once) and ``klass`` is "auto" or names it.  Otherwise the exact
    solver answers, as route "general"; mu has none, so it takes its class
    route whatever ``klass`` names.  tau is the complement of alpha on every
    route.  A named ``klass`` must hold even when no route of ``kind`` uses
    it, or :class:`GraphFormatError` is raised.
    """
    from .recognizers import recognize_bipartite, recognize_chordal, recognize_cograph

    if kind == "tau":
        alpha, route = certified_value(g, "alpha", klass)
        return tau_from_alpha(g, alpha), route
    # Built per call, so a name that a tracer rebinds is seen.
    recognisers = {"bipartite": recognize_bipartite, "chordal": recognize_chordal,
                   "cograph": recognize_cograph}
    # A clique and a colouring of one size; on the empty graph there is no
    # vertex to stand as the clique, and the fallback answers.
    pairs = {"bipartite": bipartite_pair, "cograph": cograph_pair} if g.n else {}
    # kind -> {class: solver(g, certificate)}, tried in this order.
    routes = {"alpha": {"bipartite": alpha_bipartite, "chordal": alpha_chordal},
              "mu": {"bipartite": mu_bipartite}, "omega": pairs, "chi": pairs}[kind]
    fallback = {"alpha": alpha_exact, "omega": omega_exact, "chi": chi_exact}.get(kind)
    cert_of = cache(lambda name: recognisers[name](g))
    if klass != "auto" and isinstance(cert_of(klass), NotInClass):
        raise GraphFormatError(f"graph is not {klass}: {cert_of(klass).reason}")
    for name, solve in routes.items():
        if fallback is None or klass in ("auto", name):
            if not isinstance(cert_of(name), NotInClass):
                pv = solve(g, cert_of(name))
                # omega reads side 0 of its class's pair, chi side 1.
                return (pv[kind == "chi"] if routes is pairs else pv), name
    if fallback is None:  # mu, whose one route ``name`` was refused
        raise GraphFormatError(f"graph is not {name}: {cert_of(name).reason}")
    return fallback(g), "general"
