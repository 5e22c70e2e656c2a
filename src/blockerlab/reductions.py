"""Executable hardness gadgets with witness transfer in both directions.

Three constructions:

* vertex cover -> clique-number contraction blocking, by adding a universal
  vertex to a triangle-free graph;
* all-positive 2-clause satisfiability with a budget of true variables ->
  independence-number blocking (contraction or deletion) on a chordal gadget
  built from per-variable cliques and a clause clique;
* minimum sum of squares -> monochromatic-edge budgets on a complete
  multipartite graph with one part per input number.

Builders re-verify their structural postconditions on construction, and the
transfer routines check the criticality/satisfiability preconditions they
document, so every output is certified rather than assumed.

``reduce`` runs one construction per process, so each construction imports
what only it needs: ``parameters`` for the chordal gadget's alpha,
``recognizers`` and ``fractions`` for the mss gadget, ``oracle`` and
``monochromatic`` for the transfers back.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations
from typing import NamedTuple, Sequence

from .errors import CertificateError, CriticalityError, GadgetPreconditionError
from .graph import (
    Colouring,
    Edge,
    Graph,
    bits,
    complete_graph,
    complete_multipartite_graph,
    contains_induced,
    contract_edges,
    delete_vertices,
    disjoint_union,
    validate_edge_set,
    validate_vertex_set,
)
from .graphio import MssInstance, SatInstance, format_graph


class VcGadgetMap(NamedTuple):
    universal_vertex: int
    base_vertex_count: int


class ChordalGadgetMap(NamedTuple):
    var_vertex: tuple[int, ...]  # v_x per variable
    var_clique: tuple[tuple[int, ...], ...]  # K_x per variable, 2k+1 vertices
    clause_vertex: tuple[int, ...]  # one per clause, forming a clique
    instance: SatInstance


class MssGadgetMap(NamedTuple):
    parts: tuple[tuple[int, ...], ...]
    instance: MssInstance


class MssTarget(NamedTuple):
    exact: Fraction  # J/2 - D, may be non-integral; build_mss_gadget imports fractions
    budget: int  # floor of the exact target; equivalent for integer counts


def _has_triangle(g: Graph):
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        if common:
            return (u, v, next(iter(bits(common))))
    return None


def build_vc_gadget(g: Graph, k: int) -> tuple[Graph, VcGadgetMap]:
    """Attach a universal vertex to a triangle-free graph with an edge.

    The result has clique number exactly 3, every triangle uses the new
    vertex, and no vertex is far from any triangle, which is re-verified via
    an induced-subgraph search on construction.
    """
    triangle = _has_triangle(g)
    if triangle is not None:
        raise GadgetPreconditionError(f"input has a triangle {triangle}")
    if g.edge_count() == 0:
        raise GadgetPreconditionError("input needs at least one edge")
    if k < 0:
        raise GadgetPreconditionError("budget k must be non-negative")
    w = g.n
    edges = g.edges() + [(v, w) for v in range(g.n)]
    gadget = Graph(g.n + 1, edges)
    c3p1 = disjoint_union(complete_graph(3), Graph(1))
    if contains_induced(gadget, c3p1) is not None:
        raise CertificateError("vc gadget has a triangle plus an isolated vertex")
    if _has_triangle(gadget) is None:  # omega == 3: triangle, no K4
        raise CertificateError("vc gadget has no triangle")
    return gadget, VcGadgetMap(universal_vertex=w, base_vertex_count=g.n)


def vc_to_contraction_set(gm: VcGadgetMap, g: Graph, cover) -> frozenset[Edge]:
    """A vertex cover of the base graph becomes cover-to-universal edges."""
    cover = validate_vertex_set(g, cover)
    w = gm.universal_vertex
    if w in cover:
        raise GadgetPreconditionError("the universal vertex is not a base vertex")
    for u, v in g.edges():
        if w not in (u, v) and u not in cover and v not in cover:
            raise GadgetPreconditionError(f"edge {u}-{v} is not covered")
    return frozenset((min(v, w), max(v, w)) for v in cover)


def contraction_set_to_vc(gm: VcGadgetMap, g: Graph, s) -> frozenset[int]:
    """Read a vertex cover off a clique-number-reducing contraction set.

    Per connected component of the contracted edges: everything except the
    universal vertex, or everything except one vertex (the highest index)
    for components avoiding it.
    """
    from .oracle import is_contraction_critical

    s = validate_edge_set(g, s)
    if not is_contraction_critical(g, s, "omega"):
        raise CriticalityError("the set does not reduce the clique number")
    into = contract_edges(g, s)[1]
    w = gm.universal_vertex
    components: dict[int, list[int]] = {}
    for v, merged in enumerate(into):
        components.setdefault(merged, []).append(v)
    cover: set[int] = set()
    for comp in components.values():
        if w in comp:
            cover.update(v for v in comp if v != w)
        else:
            cover.update(comp[:-1])
    if len(cover) > len(s):
        raise CertificateError(f"cover has {len(cover)} vertices, set has {len(s)} edges")
    return frozenset(cover)


def build_chordal_gadget(sat: SatInstance) -> tuple[Graph, ChordalGadgetMap]:
    """One clique of 2k+1 vertices plus a pendant-clique vertex per variable,
    one clique over the clause vertices, clause vertices complete to the
    cliques of their two variables.

    Chordality and the independence number (variable count plus one) are
    re-verified on construction.  Chordal graphs are perfect, so the same
    instances double as a perfect-graph family for the deletion variant.
    """
    block = 2 * sat.k + 2
    var_vertex = tuple(range(0, sat.variable_count * block, block))
    var_clique = tuple(tuple(range(v + 1, v + block)) for v in var_vertex)
    offset = sat.variable_count * block
    clause_vertex = tuple(range(offset, offset + len(sat.clauses)))
    edges = [e for v, clique in zip(var_vertex, var_clique) for e in combinations((v, *clique), 2)]
    edges.extend(combinations(clause_vertex, 2))
    for c, (x, y) in enumerate(sat.clauses):
        edges.extend((u, clause_vertex[c]) for u in var_clique[x] + var_clique[y])
    gadget = Graph(offset + len(sat.clauses), edges)

    if _gadget_alpha(gadget) != sat.variable_count + 1:
        raise CertificateError("chordal gadget alpha is not the variable count plus one")
    return gadget, ChordalGadgetMap(var_vertex, var_clique, clause_vertex, instance=sat)


def _gadget_alpha(g: Graph) -> int:
    """alpha of a chordal graph by Gavril's route; else GraphFormatError."""
    from .parameters import certified_value

    return certified_value(g, "alpha", "chordal")[0].value


def _checked_assignment(gm: ChordalGadgetMap, positives) -> list[int]:
    """The true variables, sorted, once they satisfy the instance within k."""
    positives = sorted(set(positives))
    if len(positives) > gm.instance.k:
        raise GadgetPreconditionError("assignment sets too many variables true")
    if not gm.instance.satisfied_by(positives):
        raise GadgetPreconditionError("assignment does not satisfy every clause")
    return positives


def assignment_to_contraction_set(
    gm: ChordalGadgetMap, g: Graph, positives
) -> frozenset[Edge]:
    """One pendant edge per true variable; contracting them drops alpha."""
    return frozenset(
        (min(gm.var_vertex[x], gm.var_clique[x][0]), max(gm.var_vertex[x], gm.var_clique[x][0]))
        for x in _checked_assignment(gm, positives)
    )


def assignment_to_deletion_set(gm: ChordalGadgetMap, g: Graph, positives) -> frozenset[int]:
    """Delete the variable vertex of every true variable."""
    return frozenset(gm.var_vertex[x] for x in _checked_assignment(gm, positives))


def contraction_set_to_assignment(gm: ChordalGadgetMap, g: Graph, s) -> frozenset[int]:
    """Variables whose gadget is touched become true; untouched clauses get
    one of their variables for free.  Works for any alpha-reducing set of at
    most k edges."""
    s = validate_edge_set(g, s)
    sat = gm.instance
    if len(s) > sat.k:
        raise CriticalityError(f"set has {len(s)} edges, budget is {sat.k}")
    if _gadget_alpha(contract_edges(g, s)[0]) >= sat.variable_count + 1:
        raise CriticalityError("the set does not reduce the independence number")
    touched = {v for e in s for v in e}
    gadget_sets = [
        {gm.var_vertex[x], *gm.var_clique[x]} for x in range(sat.variable_count)
    ]
    positives = {x for x in range(sat.variable_count) if gadget_sets[x] & touched}
    for x, y in sat.clauses:
        if x not in positives and y not in positives:
            if not gadget_sets[x] & touched and not gadget_sets[y] & touched:
                positives.add(min(x, y))
    if not sat.satisfied_by(positives) or len(positives) > len(s):
        raise CertificateError("transferred assignment is unsatisfying or over budget")
    return frozenset(positives)


def deletion_set_to_assignment(gm: ChordalGadgetMap, g: Graph, w) -> frozenset[int]:
    """Deleted variable vertices become true; each deleted clause vertex
    donates one of its variables."""
    w = validate_vertex_set(g, w)
    sat = gm.instance
    if len(w) > sat.k:
        raise CriticalityError(f"set has {len(w)} vertices, budget is {sat.k}")
    if _gadget_alpha(delete_vertices(g, w)[0]) >= sat.variable_count + 1:
        raise CriticalityError("the set does not reduce the independence number")
    positives = {x for x in range(sat.variable_count) if gm.var_vertex[x] in w}
    for c, (x, y) in enumerate(sat.clauses):
        if gm.clause_vertex[c] in w and x not in positives and y not in positives:
            positives.add(min(x, y))
    if not sat.satisfied_by(positives) or len(positives) > len(w):
        raise CertificateError("transferred assignment is unsatisfying or over budget")
    return frozenset(positives)


def build_mss_gadget(mss: MssInstance) -> tuple[Graph, MssGadgetMap, MssTarget]:
    """Complete multipartite graph with one part of size a_j per index j.

    The monochromatic-edge budget is J/2 - D with D half the sum of squared
    entries; counts are integers, so the floor is an equivalent budget.
    """
    from fractions import Fraction

    from .recognizers import MultipartiteParts, recognize_complete_multipartite

    gadget = complete_multipartite_graph(mss.a)
    if not isinstance(recognize_complete_multipartite(gadget), MultipartiteParts):
        raise CertificateError("mss gadget is not complete multipartite")

    D = Fraction(sum(x * x for x in mss.a), 2)
    exact = Fraction(mss.J, 2) - D
    starts = list(accumulate(mss.a, initial=0))
    parts = tuple(tuple(range(starts[j], starts[j + 1])) for j in range(mss.ell))
    target = MssTarget(exact=exact, budget=math.floor(exact))
    return gadget, MssGadgetMap(parts=parts, instance=mss), target


def gadget_fields(construction: str, source, k: int | None = None) -> dict:
    """The fields of a ``reduce`` report, which its writer and ``verify``
    both build here: the gadget map less the instance, ``k`` (vc2cb, whose
    ``source`` is a graph) or the instance, mss2mono's target, the gadget."""
    if construction == "vc2cb":
        gadget, gm = build_vc_gadget(source, k)
        extra = {"k": k}
    elif construction == "sat2chordal":
        gadget, gm = build_chordal_gadget(source)
        extra = {"instance": {"variables": source.variable_count, "clauses": source.clauses,
                              "k": source.k}}
    elif construction == "mss2mono":
        gadget, gm, target = build_mss_gadget(source)
        extra = {"instance": source._asdict(),
                 "target": {"exact": str(target.exact), "budget": target.budget}}
    else:
        raise GadgetPreconditionError(f"unknown construction {construction!r}")
    return {
        "construction": construction,
        "gadget_map": {key: value for key, value in gm._asdict().items() if key != "instance"},
        **extra,
        "graph": format_graph(gadget, comment=f"{construction} gadget"),
    }


def partition_to_colouring(gm: MssGadgetMap, parts: Sequence[Sequence[int]]) -> Colouring:
    """Colour the vertex block of index j with the group that contains j."""
    mss = gm.instance
    flat = sorted(j for group in parts for j in group)
    if flat != list(range(mss.ell)):
        raise GadgetPreconditionError("groups must partition the index set")
    if len(parts) > mss.h:
        raise GadgetPreconditionError(f"at most h={mss.h} groups allowed")
    n = sum(mss.a)
    colouring = [0] * n
    for colour, group in enumerate(parts, start=1):
        for j in group:
            for v in gm.parts[j]:
                colouring[v] = colour
    # Unused colours are fine; every vertex got one because groups cover [ell].
    return tuple(colouring)


def colouring_to_partition(
    gm: MssGadgetMap, g: Graph, c: Sequence[int]
) -> tuple[Colouring, tuple[tuple[int, ...], ...]]:
    """Normalise each block to one colour, then read the groups off.

    Blocks are independent sets whose members all see exactly the rest of the
    graph, so the recolouring step never increases the monochromatic count.
    Returns the normalised colouring and the length-h group tuple.
    """
    from .monochromatic import recolour_module

    mss = gm.instance
    out = tuple(c)
    for block in gm.parts:
        if len({out[v] for v in block}) > 1:
            out = recolour_module(g, out, block)
    colours = sorted({out[block[0]] for block in gm.parts})
    if len(colours) > mss.h or any(col < 1 or col > mss.h for col in colours):
        raise GadgetPreconditionError("colouring must use colours within [h]")
    groups = tuple(
        tuple(j for j in range(mss.ell) if out[gm.parts[j][0]] == colour)
        for colour in range(1, mss.h + 1)
    )
    return out, groups
