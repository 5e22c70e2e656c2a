"""Undirected simple graphs on dense integer vertices.

Vertices are always ``0 .. n-1``.  Adjacency is stored as one int bitmask per
vertex, which keeps the exhaustive solvers (subset enumeration, branch and
bound) fast without external dependencies.  Graphs are immutable after
construction and safe to share between threads; every operation returns a new
graph together with whatever vertex map is needed to translate witnesses back
to the input.

Edges are normalised ``(u, v)`` tuples with ``u < v``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidEdgeError, InvalidVertexError

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalise an unordered vertex pair to a canonical edge tuple."""
    if u == v:
        raise InvalidEdgeError(f"self-loop {u}-{v} is not a valid edge")
    return (u, v) if u < v else (v, u)


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_mask(vertices: Iterable[int]) -> int:
    """The bitmask with exactly the bits of ``vertices`` set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def components(adj: tuple[int, ...], mask: int, co: bool = False) -> list[int]:
    """Components of ``G[mask]``, or of its complement when ``co``, as
    bitmasks ordered by least vertex."""
    parts = []
    rest = mask
    while rest:
        frontier = rest & -rest
        rest ^= frontier
        part = frontier
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nbrs = adj[low.bit_length() - 1]
            reached = rest & ~nbrs if co else rest & nbrs
            rest ^= reached
            part |= reached
            frontier |= reached
        parts.append(part)
    return parts


class Graph:
    """An immutable simple graph: no loops, no parallel edges, symmetric."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidVertexError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge {u}-{v} out of range for n={n}")
            if u == v:
                raise InvalidEdgeError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @property
    def adj(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks."""
        return self._adj

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def neighbours(self, v: int) -> list[int]:
        return list(bits(self._adj[v]))

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def edges(self) -> list[Edge]:
        """All edges as sorted ``(u, v)`` tuples with ``u < v``."""
        out = []
        for u in range(self.n):
            mask = self._adj[u] >> (u + 1) << (u + 1)
            for v in bits(mask):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return _from_masks([full & ~(m | 1 << v) for v, m in enumerate(self._adj)])

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the components, ordered by least vertex."""
        return [list(bits(part)) for part in components(self._adj, (1 << self.n) - 1)]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _from_masks(adj: list[int]) -> Graph:
    """A graph from neighbour masks that are already symmetric and
    loop-free, without re-checking them."""
    g = Graph.__new__(Graph)
    g.n = len(adj)
    g._adj = tuple(adj)
    return g


def _image(mask: int, new: dict[int, int]) -> int:
    """The mask of ``new[v]`` over the set bits ``v`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << new[low.bit_length() - 1]
        mask ^= low
    return out


def validate_edge_set(g: Graph, s: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    """Normalise ``s`` and check every pair is an edge of ``g``."""
    adj, n = g.adj, g.n
    out = set()
    for u, v in s:
        e = edge(u, v)
        if not (0 <= e[0] and e[1] < n and adj[e[0]] >> e[1] & 1):
            raise InvalidEdgeError(f"{e} is not an edge of the host graph")
        out.add(e)
    return frozenset(out)


def validate_vertex_set(g: Graph, u: Iterable[int]) -> frozenset[int]:
    out = frozenset(u)
    for v in out:
        if not 0 <= v < g.n:
            raise InvalidVertexError(f"vertex {v} out of range for n={g.n}")
    return out


def restriction(g: Graph, s: Iterable[tuple[int, int]]) -> Graph:
    """The spanning subgraph of ``g`` whose edge set is exactly ``s``."""
    return Graph(g.n, validate_edge_set(g, s))


def contract_edges(
    g: Graph, s: Iterable[tuple[int, int]]
) -> tuple[Graph, tuple[int, ...]]:
    """Contract every edge of ``s`` simultaneously.

    The vertices of the result correspond to the connected components of the
    restriction of ``g`` to ``s``; two of them are adjacent exactly when the
    components they came from are joined by an edge of ``g``.  Returns the
    contracted graph plus a map ``old vertex -> new vertex`` so that witnesses
    on the result can be translated back.
    """
    adj, universe, into = _merge(g.adj, validate_edge_set(g, s))
    contracted, new = _induced(adj, universe)
    comp: list[int] = []
    for v in range(g.n):  # a vertex merges into a lesser one
        comp.append(comp[into[v]] if v in into else new[v])
    return contracted, tuple(comp)


def _merge(adj: tuple[int, ...], s: Iterable[Edge]) -> tuple[list[int], int, dict[int, int]]:
    """Contract the pairs of ``s``, which must be edges of the graph of
    ``adj``, keeping vertex indices.

    A union-find whose union is the contraction: of two merged vertices the
    lesser stays, so each component of the restriction to ``s`` ends in its
    least vertex.  The other one leaves the vertex mask ``universe``, and
    its neighbours are rewired to the one that stays.  Returns the neighbour
    masks, in which every vertex of ``universe`` has a mask inside
    ``universe`` (the masks of the others are stale), ``universe``, and the
    map from each vertex that left to the one it merged into.
    """
    a = list(adj)
    universe = (1 << len(adj)) - 1
    into: dict[int, int] = {}
    for u, v in s:
        # Find both roots, halving the paths to them.
        while u in into:
            into[u] = into.get(into[u], into[u])
            u = into[u]
        while v in into:
            into[v] = into.get(into[v], into[v])
            v = into[v]
        if u == v:
            continue
        if u > v:
            u, v = v, u
        into[v] = u
        stays, leaves = 1 << u, 1 << v
        # u and v are adjacent: an edge of s joins their components.
        nbrs = a[v] & ~stays
        a[u] = (a[u] | nbrs) & ~leaves
        for w in bits(nbrs):
            a[w] = a[w] & ~leaves | stays
        universe ^= leaves
    return a, universe, into


def delete_vertices(g: Graph, u: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``V - u`` plus the old->new reindexing map."""
    return _induced(g.adj, ((1 << g.n) - 1) & ~to_mask(validate_vertex_set(g, u)))


def delete_edges(g: Graph, s: Iterable[tuple[int, int]]) -> Graph:
    """Same vertex set, with the edges of ``s`` removed."""
    adj = list(g.adj)
    for u, v in validate_edge_set(g, s):
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return _from_masks(adj)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``vertices`` plus the old->new map.

    New indices follow the sorted order of the kept vertices.
    """
    return _induced(g.adj, to_mask(validate_vertex_set(g, vertices)))


def _induced(adj: Sequence[int], inside: int) -> tuple[Graph, dict[int, int]]:
    """The graph the masks ``adj`` induce on ``inside``, renumbered in
    order, and the old->new map of the kept vertices."""
    keep = list(bits(inside))
    remap = {old: new for new, old in enumerate(keep)}
    return _from_masks([_image(adj[old] & inside, remap) for old in keep]), remap


def is_forest(g: Graph) -> bool:
    """True iff the graph has no cycle."""
    return g.edge_count() == g.n - len(g.connected_components())


def contains_induced(g: Graph, h: Graph) -> Optional[tuple[int, ...]]:
    """Search for an induced copy of ``h`` in ``g``.

    Returns a tuple mapping each vertex of ``h`` to a distinct vertex of
    ``g`` witnessing the copy, or ``None``.  Plain backtracking with degree
    pruning; intended for small patterns (up to about 6 vertices).
    """
    if h.n > g.n:
        return None
    order = sorted(range(h.n), key=lambda v: -h.degree(v))
    mapping = [-1] * h.n
    used = [False] * g.n

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        hu = order[i]
        for gv in range(g.n):
            if used[gv] or g.degree(gv) < h.degree(hu):
                continue
            ok = True
            for j in range(i):
                hw = order[j]
                if g.has_edge(gv, mapping[hw]) != h.has_edge(hu, hw):
                    ok = False
                    break
            if ok:
                mapping[hu] = gv
                used[gv] = True
                if extend(i + 1):
                    return True
                used[gv] = False
                mapping[hu] = -1
        return False

    if extend(0):
        return tuple(mapping)
    return None


# -- small named graphs -------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidEdgeError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_multipartite_graph(sizes: Sequence[int]) -> Graph:
    """Parts of the given sizes, numbered part by part; two vertices are
    adjacent exactly when they lie in different parts."""
    full = (1 << sum(sizes)) - 1
    adj, low = [], 0
    for size in sizes:
        adj += [full & ~(((1 << size) - 1) << low)] * size
        low += size
    return _from_masks(adj)


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return complete_multipartite_graph((a, b))


def star_graph(leaves: int) -> Graph:
    return complete_bipartite_graph(1, leaves)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def graph_join(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    edges += [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return Graph(g.n + h.n, edges)
