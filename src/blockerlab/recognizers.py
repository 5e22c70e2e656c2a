"""Graph-class recognizers returning positive certificates or negative witnesses.

Positive certificates carry enough structure to drive the polynomial
parameter routines (bipartition for matching/König, perfect elimination order
for the chordal greedy, cotree for the colouring DPs, parts for complete
multipartite graphs).  Negative answers carry a concrete forbidden structure:
an odd cycle, a chordless cycle of length >= 4, an induced P4, or an induced
P2+P1.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from .certificates import (
    Bipartition, CotreeCertificate, EliminationOrder, MultipartiteParts, NotInClass
)
from .errors import CertificateError, NotACographError
from .graph import (
    Graph, bits, components, contains_induced, disjoint_union, is_independent, path_graph, to_mask
)

def recognize_bipartite(g: Graph) -> Union[Bipartition, NotInClass]:
    """Two-colour by BFS; on failure return an odd cycle."""
    colour = [-1] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in bits(g.adj[u]):
                if colour[v] == -1:
                    colour[v] = colour[u] ^ 1
                    parent[v] = u
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return NotInClass("odd cycle", _odd_cycle(parent, u, v))
    left = frozenset(v for v in range(g.n) if colour[v] == 0)
    right = frozenset(v for v in range(g.n) if colour[v] == 1)
    return Bipartition(left, right)


def _odd_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    path_u, path_v = [u], [v]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    while parent[path_v[-1]] != -1:
        path_v.append(parent[path_v[-1]])
    su, sv = set(path_u), set(path_v)
    meet = next(x for x in path_u if x in sv)
    cyc = path_u[: path_u.index(meet) + 1] + path_v[: path_v.index(meet)][::-1]
    if len(cyc) % 2 != 1:
        raise CertificateError(f"odd-cycle witness has even length {len(cyc)}")
    return tuple(cyc)


def validate_bipartition(g: Graph, cert: Bipartition) -> None:
    if cert.left & cert.right or cert.left | cert.right != set(range(g.n)):
        raise CertificateError("bipartition does not partition the vertex set")
    if not all(is_independent(g.adj, to_mask(part)) for part in (cert.left, cert.right)):
        raise CertificateError("bipartition part is not independent")


def _lex_bfs(g: Graph) -> list[int]:
    # O(n^2) lexicographic BFS; ample at this scale.
    labels: list[list[int]] = [[] for _ in range(g.n)]
    visited = [False] * g.n
    order = []
    for step in range(g.n):
        u = max(
            (v for v in range(g.n) if not visited[v]),
            key=lambda v: (labels[v], -v),
        )
        visited[u] = True
        order.append(u)
        for w in bits(g.adj[u]):
            if not visited[w]:
                labels[w].append(g.n - step)
    return order


def _elimination_violation(g: Graph, order: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """The first ``(v, u, w)`` at which the vertex permutation ``order`` is
    no perfect elimination order, else None: ``u`` is the earliest later
    neighbour of ``v`` and ``w`` the least other one that ``u`` does not see.
    Checking ``u`` alone is enough (Rose, Tarjan and Lueker, 1976)."""
    pos = {v: i for i, v in enumerate(order)}
    done = 0
    for v in order:
        done |= 1 << v
        later = g.adj[v] & ~done
        if later:
            u = min(bits(later), key=pos.__getitem__)
            if unseen := later & ~(g.adj[u] | 1 << u):
                return v, u, (unseen & -unseen).bit_length() - 1
    return None


def recognize_chordal(g: Graph) -> Union[EliminationOrder, NotInClass]:
    """LexBFS then elimination-order verification; failure yields a hole."""
    peo = tuple(_lex_bfs(g)[::-1])
    if violation := _elimination_violation(g, peo):
        return NotInClass("chordless cycle", _find_hole(g, *violation))
    return EliminationOrder(peo)


def _find_hole(g: Graph, v: int, u: int, w: int) -> tuple[int, ...]:
    """An induced cycle >= 4 through v given non-adjacent u, w in N(v)."""
    blocked = set(bits(g.adj[v])) - {u, w}
    parent = {u: -1}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == w:
            break
        for y in bits(g.adj[x]):
            if y not in parent and y != v and y not in blocked:
                parent[y] = x
                queue.append(y)
    if w not in parent:
        raise CertificateError("failing PEO triple must close a cycle")
    path = [w]
    while path[-1] != u:
        path.append(parent[path[-1]])
    # Shorten to an induced path: BFS already gives a shortest u-w path, which
    # has no chords, so v + path is a chordless cycle of length >= 4.
    return tuple([v] + path[::-1])


def validate_elimination_order(g: Graph, cert: EliminationOrder) -> None:
    if sorted(cert.order) != list(range(g.n)):
        raise CertificateError("elimination order must enumerate all vertices")
    if violation := _elimination_violation(g, cert.order):
        v, u, w = violation
        raise CertificateError(f"later neighbours {min(u, w)},{max(u, w)} of {v} are not adjacent")


def recognize_cograph(g: Graph) -> Union[CotreeCertificate, NotInClass]:
    from .cotree import build_cotree

    if not g.n:
        # The 0-vertex graph has no cotree, so it counts as no cograph.
        return NotInClass("0 vertices", ())
    try:
        return CotreeCertificate(build_cotree(g))
    except NotACographError as exc:
        return NotInClass("induced P4", exc.witness)


def recognize_complete_multipartite(g: Graph) -> Union[MultipartiteParts, NotInClass]:
    """Parts are the complement's components; failure yields an induced P2+P1."""
    parts = components(g.adj, (1 << g.n) - 1, co=True)
    cert = MultipartiteParts(tuple(frozenset(bits(part)) for part in parts))
    try:
        validate_multipartite(g, cert)
    except CertificateError:
        hit = contains_induced(g, disjoint_union(path_graph(2), path_graph(1)))
        if hit is None:
            raise CertificateError("not complete multipartite, yet no induced P2+P1")
        return NotInClass("induced P2+P1", hit)
    return cert


def validate_multipartite(g: Graph, cert: MultipartiteParts) -> None:
    full = (1 << g.n) - 1
    seen = 0
    for part in cert.parts:
        if not part:
            raise CertificateError("part is empty")
        mask = to_mask(part)
        if mask & seen:
            raise CertificateError("parts overlap")
        seen |= mask
        if not is_independent(g.adj, mask):
            raise CertificateError("part is not independent")
    if seen != full:
        raise CertificateError("parts do not cover the vertex set")
    # Each vertex sees exactly the vertices outside its part.
    if any(g.adj[u] != full & ~mask for mask in map(to_mask, cert.parts) for u in bits(mask)):
        raise CertificateError("cross pair not adjacent")
