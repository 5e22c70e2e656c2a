"""Catalogues of small connected graphs per class, plus random generators.

The per-class generators are constructive and complete at these sizes:

* bipartite, chordal and c3-free are grown one vertex at a time, after McKay
  ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each graph
  on n-1 vertices gets a new vertex joined to a non-empty attach set the class
  allows (a subset of one side of the bipartition, a clique, an independent
  set), and ``isomorphism.dedup_isomorphic`` keeps one graph per canonical
  key.  Every connected graph has a non-cut vertex whose removal leaves a
  connected class member, and a chordal graph a simplicial one, so this
  reaches every member;
* cograph: enumerated directly as canonical cotrees (join/union multisets),
  so no isomorphism search is needed;
* complete multipartite: one graph per partition of n.

Random generators take an explicit :class:`random.Random` so runs reproduce.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator

from .cotree import Cotree, CotreeInner, CotreeLeaf, CotreeNode, realize_cotree
from .graph import Graph, bits, complete_multipartite_graph
from .isomorphism import dedup_isomorphic
from .recognizers import recognize_bipartite

CATALOGUE_CLASSES = (
    "bipartite",
    "chordal",
    "cograph",
    "complete-multipartite",
    "c3-free",
)


def graph_catalogue(clazz: str, n_max: int) -> Iterator[Graph]:
    """Stream the connected members of a class up to ``n_max`` vertices.

    Graphs come out grouped by vertex count, smallest first, one
    representative per isomorphism class.
    """
    if clazz not in CATALOGUE_CLASSES:
        raise ValueError(f"unknown catalogue class {clazz!r}")
    if not 1 <= n_max <= 9:
        raise ValueError("catalogue generation supports 1 <= n_max <= 9")
    yield from _catalogue_cached(clazz, n_max)


@functools.lru_cache(maxsize=None)
def _catalogue_cached(clazz: str, n_max: int) -> tuple[Graph, ...]:
    if clazz == "cograph":
        return tuple(_cograph_catalogue(n_max))
    if clazz == "complete-multipartite":
        return tuple(_multipartite_catalogue(n_max))
    attach_sets = {
        "bipartite": _one_side_subsets,
        "chordal": _cliques,
        "c3-free": lambda g: _cliques(g.complement()),
    }[clazz]
    return tuple(_grown_catalogue(n_max, attach_sets))


def _grown_catalogue(n_max: int, attach_sets) -> Iterator[Graph]:
    """Grow level n from level n-1: join a new vertex to each non-empty
    attach set, and keep the first graph of each isomorphism class."""
    level = [Graph(1)]
    yield from level
    for _ in range(1, n_max):
        level = dedup_isomorphic(
            Graph(g.n + 1, g.edges() + [(v, g.n) for v in s])
            for g in level
            for s in attach_sets(g)
            if s
        )
        yield from level


def _one_side_subsets(g: Graph) -> Iterator[tuple[int, ...]]:
    cert = recognize_bipartite(g)
    for side in (sorted(cert.left), sorted(cert.right)):
        for r in range(1, len(side) + 1):
            yield from itertools.combinations(side, r)


def _cliques(g: Graph) -> Iterator[tuple[int, ...]]:
    """All cliques of a small graph, the empty clique included."""

    def extend(clique: list[int], cand: int) -> Iterator[tuple[int, ...]]:
        yield tuple(clique)
        for v in bits(cand):
            common = cand & g.adj[v]
            clique.append(v)
            yield from extend(clique, common & ~((1 << (v + 1)) - 1))
            clique.pop()

    yield from extend([], (1 << g.n) - 1)


# Canonical unlabelled cotrees: a connected cograph on >= 2 vertices is a join
# of >= 2 parts, each of which is a single vertex or a union of >= 2 smaller
# connected parts.  Enumerating these multisets gives each cograph exactly once.


@functools.lru_cache(maxsize=None)
def _join_rooted(n: int) -> tuple[tuple, ...]:
    if n == 1:
        return (("leaf",),)
    out = []
    for parts in _multisets(n, min_parts=2, kind="union"):
        out.append(("join", parts))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _union_rooted(n: int) -> tuple[tuple, ...]:
    if n == 1:
        return (("leaf",),)
    out = []
    for parts in _multisets(n, min_parts=2, kind="join"):
        out.append(("union", parts))
    return tuple(out)


def _multisets(n: int, min_parts: int, kind: str) -> Iterator[tuple]:
    """Multisets of >= min_parts child trees of the given kind summing to n."""
    child_pool = _join_rooted if kind == "join" else _union_rooted

    def rec(remaining: int, max_size: int, chosen: tuple, count: int) -> Iterator[tuple]:
        if remaining == 0:
            if count >= min_parts:
                yield chosen
            return
        for size in range(min(remaining, max_size), 0, -1):
            options = child_pool(size)
            # Choose children of this size as a combination with repetition,
            # bounded so the remainder can still be filled.
            for take in range(1, remaining // size + 1):
                for combo in itertools.combinations_with_replacement(
                    range(len(options)), take
                ):
                    yield from rec(
                        remaining - take * size,
                        size - 1,
                        chosen + tuple(options[i] for i in combo),
                        count + take,
                    )

    # A multiset of >= 2 parts can never contain a part of the full size.
    yield from rec(n, n - 1, (), 0)


def _shape_to_cotree(shape: tuple) -> Cotree:
    counter = itertools.count()

    def build(s) -> CotreeNode:
        if s[0] == "leaf":
            return CotreeLeaf(next(counter))
        label = 1 if s[0] == "join" else 0
        children = [build(c) for c in s[1]]
        node = children[0]
        for nxt in children[1:]:
            node = CotreeInner(label, node, nxt)
        return node

    return Cotree(build(shape))


def _cograph_catalogue(n_max: int) -> Iterator[Graph]:
    for n in range(1, n_max + 1):
        for shape in _join_rooted(n):
            yield realize_cotree(_shape_to_cotree(shape))


def _multipartite_catalogue(n_max: int) -> Iterator[Graph]:
    for n in range(1, n_max + 1):
        for parts in _partitions(n):
            g = complete_multipartite_graph(parts)
            if g.is_connected():
                yield g


def _partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# -- random generators --------------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g


def random_bipartite(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    n1 = rng.randint(1, max(1, n - 1))
    edges = [
        (i, n1 + j)
        for i in range(n1)
        for j in range(n - n1)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_bipartite(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_bipartite(rng, n, p)
        if g.is_connected():
            return g


def random_chordal(rng: random.Random, n: int) -> Graph:
    """Grow a connected chordal graph by attaching to random cliques."""
    edges: list[tuple[int, int]] = []
    g = Graph(1)
    for v in range(1, n):
        cliques = [c for c in _cliques(g) if c]
        base = rng.choice(cliques)
        edges.extend((u, v) for u in base)
        g = Graph(v + 1, edges)
    return g
