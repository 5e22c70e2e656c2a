"""Canonical keys for small graphs: isomorphism tests and deduplication.

``invariant_key`` is a complete invariant, after McKay and Piperno
("Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014): refine an
ordered partition of the vertices, individualise each vertex of the first
smallest non-singleton cell in turn, and refine again down to discrete
partitions.  Each leaf orders the vertices; the key is the least relabelled
edge tuple.  A twin (same open or closed neighbourhood) of a vertex already
tried in the cell is skipped: swapping the two is an automorphism fixing
every individualised vertex, so both subtrees give the same leaves.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, bits


def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Split cells (vertex bitmasks) until all vertices of a cell have the
    same number of neighbours in each cell; fragments are ordered by those
    counts, so the result commutes with relabelling."""
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            split: dict[tuple[int, ...], int] = {}
            for v in bits(cell):
                sig = tuple((adj[v] & c).bit_count() for c in cells)
                split[sig] = split.get(sig, 0) | 1 << v
            out.extend(split[sig] for sig in sorted(split))
        if len(out) == len(cells):
            return out
        cells = out


def invariant_key(g: Graph) -> tuple:
    """The canonical key of ``g``: its vertex count and least edge tuple."""
    adj = g.adj
    edges = g.edges()
    best = None
    stack = [_refine(adj, [(1 << g.n) - 1] if g.n else [])]
    while stack:
        cells = stack.pop()
        target = min((c for c in cells if c & (c - 1)), key=int.bit_count, default=0)
        if not target:
            pos = [0] * g.n
            for i, c in enumerate(cells):
                pos[c.bit_length() - 1] = i
            leaf = tuple(sorted(
                (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u]) for u, v in edges
            ))
            if best is None or leaf < best:
                best = leaf
            continue
        at = cells.index(target)
        tried: list[int] = []
        for v in bits(target):
            if any(adj[v] & ~(1 << u) == adj[u] & ~(1 << v) for u in tried):
                continue
            tried.append(v)
            stack.append(_refine(adj, cells[:at] + [1 << v, target ^ 1 << v] + cells[at + 1:]))
    return (g.n, best)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return invariant_key(g) == invariant_key(h)


def dedup_isomorphic(graphs: Iterable[Graph]) -> list[Graph]:
    """Keep the first graph of each isomorphism class, in input order."""
    seen = set()
    out = []
    for g in graphs:
        key = invariant_key(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out
