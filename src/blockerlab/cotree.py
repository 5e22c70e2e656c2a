"""Binary cotrees: construction, realisation and per-node statistics.

A cotree is a rooted binary tree whose leaves are the vertices of a cograph
and whose interior nodes are labelled 0 (disjoint union) or 1 (join).  Both
colouring dynamic programmes run over this structure, so the tree keeps a
postorder index per node together with subtree sizes and chromatic numbers.
It keeps no per-node vertex sets: a 4000-vertex chain's would hold 65 MB.
:func:`fold` is the one bottom-up pass (a leaf value, and one combine per
label); the statistics, :func:`realize_cotree` and the cograph clique are
folds, and a caller that needs a subtree's vertices folds their masks.
:func:`proper_colouring` hands out colours top-down instead, so it keeps no
per-node colour classes.

:func:`build_cotree` costs O(n^2) big-integer mask operations, and nothing in
this module recurses, so deep trees (threshold chains of thousands of
vertices) build, print and parse under the default recursion limit.
"""

from __future__ import annotations

from operator import add, or_
from typing import Callable, NamedTuple, Union

from .errors import CertificateError, NotACographError
from .graph import Graph, bits, components


class CotreeLeaf:
    __slots__ = ("vertex", "index")

    def __init__(self, vertex: int):
        self.vertex = vertex
        self.index = -1

    def __repr__(self) -> str:
        return f"Leaf({self.vertex})"


class CotreeInner:
    __slots__ = ("label", "left", "right", "index")

    def __init__(self, label: int, left: "CotreeNode", right: "CotreeNode"):
        if label not in (0, 1):
            raise ValueError("interior cotree nodes are labelled 0 or 1")
        self.label = label
        self.left = left
        self.right = right
        self.index = -1

    def __repr__(self) -> str:
        return f"Inner({self.label})"


CotreeNode = Union[CotreeLeaf, CotreeInner]


class NodeStats(NamedTuple):
    """Subtree size and chromatic number, indexed by postorder node index."""

    size: tuple[int, ...]
    chi: tuple[int, ...]


class Cotree:
    """A rooted binary cotree with postorder-indexed nodes.

    Every inner node has exactly two children, and the leaves carry the
    vertices ``0 .. n-1``, each exactly once.  A node belongs to one tree,
    and a refused construction writes no node's index.
    """

    def __init__(self, root: CotreeNode):
        self.root = root
        self.postorder: list[CotreeNode] = []
        vertices = []
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                self.postorder.append(node)
            elif node.index != -1:
                raise ValueError("a cotree node belongs to one tree only")
            elif isinstance(node, CotreeLeaf):
                self.postorder.append(node)
                vertices.append(node.vertex)
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        if sorted(vertices) != list(range(len(vertices))):
            raise ValueError("cotree leaves must carry vertices 0..n-1 exactly once")
        for index, node in enumerate(self.postorder):
            node.index = index
        self.n = len(vertices)
        sizes = fold(self, lambda v: 1, add, add)
        self._stats = NodeStats(size=tuple(sizes), chi=tuple(fold(self, lambda v: 1, max, add)))

    @property
    def chi(self) -> int:
        return self._stats.chi[self.root.index]

    def stats(self) -> NodeStats:
        return self._stats


def fold(t: Cotree, leaf: Callable, union: Callable, join: Callable) -> list:
    """Evaluate ``t`` bottom-up: ``leaf(vertex)`` at a leaf, and ``union`` or
    ``join`` of its children's values at an inner node labelled 0 or 1.

    Returns every node's value by postorder index, so the root's comes last.
    """
    values: list = []
    for node in t.postorder:
        if isinstance(node, CotreeLeaf):
            values.append(leaf(node.vertex))
        else:
            combine = join if node.label else union
            values.append(combine(values[node.left.index], values[node.right.index]))
    return values


def _chain(nodes: list[CotreeNode], label: int) -> CotreeNode:
    # Left-nested binarisation; the DPs are associativity-invariant.
    out = nodes[0]
    for nxt in nodes[1:]:
        out = CotreeInner(label, out, nxt)
    return out


def _induced_p4(adj: tuple[int, ...], mask: int) -> tuple[int, int, int, int]:
    """An induced P4 ``a-b-c-d`` of ``G[mask]``, which is connected and
    co-connected, in O(|mask|^2) mask operations.

    Split ``mask`` around its least vertex ``v`` into neighbours ``N`` and
    non-neighbours ``M``.  A vertex of ``N`` seeing part of a component of
    ``G[M]`` closes a P4 through ``v``, and so, in the complement, does a
    vertex of ``M`` seeing part of a component of the complement of
    ``G[N]``.  Otherwise adjacency between those components is all or
    nothing, and two co-components of ``N`` with incomparable sets of
    adjacent components of ``G[M]`` give the P4.
    """
    low = mask & -mask
    v = low.bit_length() - 1
    near = adj[v] & mask
    far = mask & ~near & ~low
    for co, a_side, b_side in ((False, near, far), (True, far, near)):
        # In H (G, or its complement when co) a_side are v's neighbours.
        for part in components(adj, b_side, co):
            for y in bits(a_side):
                seen = (~adj[y] if co else adj[y]) & part
                unseen = part & ~seen
                if not (seen and unseen):
                    continue
                for x in bits(seen):
                    step = (~adj[x] if co else adj[x]) & unseen
                    if step:
                        x2 = next(bits(step))
                        # H-path v-y-x-x2; a complement P4 p0-p1-p2-p3 is
                        # the P4 p1-p3-p0-p2 of G.
                        return (y, x2, v, x) if co else (v, y, x, x2)
    # One vertex stands for each component; the rows are, per co-component
    # of N, the index set of adjacent components of G[M].
    reps_m = [next(bits(part)) for part in components(adj, far)]
    rows = sorted(
        ((sum(1 << i for i, x in enumerate(reps_m) if adj[y] >> x & 1), y)
         for y in (next(bits(part)) for part in components(adj, near, True))),
        key=lambda row: row[0].bit_count(),
    )
    for (s1, y1), (s2, y2) in zip(rows, rows[1:]):
        if s1 & ~s2:
            x1 = reps_m[next(bits(s1 & ~s2))]
            x2 = reps_m[next(bits(s2 & ~s1))]
            return x1, y1, y2, x2
    raise CertificateError("connected, co-connected, n>1 implies an induced P4")


def _checked_p4(adj: tuple[int, ...], path: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = path
    pattern = [adj[a] >> b & 1, adj[b] >> c & 1, adj[c] >> d & 1,
               adj[a] >> c & 1, adj[a] >> d & 1, adj[b] >> d & 1]
    if pattern != [1, 1, 1, 0, 0, 0]:
        raise CertificateError(f"{path} is not an induced P4")
    return path


def build_cotree(g: Graph) -> Cotree:
    """Build a binary cotree for ``g`` by complement-connectivity on bitmasks.

    Each vertex set on an explicit stack splits into the components of its
    induced subgraph, or, when that is connected, of its complement.  Each
    level touches each of its vertices at most twice, so a build costs O(n^2)
    big-integer mask operations and never recurses.  Parts are ordered by least vertex and
    chained left-nested; label 0 is union, 1 is join.

    Raises :class:`NotACographError` carrying an induced P4 when ``g`` is not
    a cograph.
    """
    if g.n == 0:
        raise ValueError("cannot build a cotree for the empty graph")
    adj = g.adj
    # Preorder entries: a leaf's vertex, or (label, child entry ids).
    entries: list = []
    stack = [((1 << g.n) - 1, None)]
    while stack:
        mask, parent = stack.pop()
        me = len(entries)
        if parent is not None:
            entries[parent][1].append(me)
        if mask & (mask - 1) == 0:
            entries.append(mask.bit_length() - 1)
            continue
        label = 0
        parts = components(adj, mask)
        if len(parts) == 1:
            label = 1
            parts = components(adj, mask, True)
        if len(parts) == 1:
            raise NotACographError(_checked_p4(adj, _induced_p4(adj, mask)))
        entries.append((label, []))
        stack.extend((part, me) for part in reversed(parts))
    # Children follow their parent in preorder, so build back to front.
    nodes: list = [None] * len(entries)
    for i in range(len(entries) - 1, -1, -1):
        entry = entries[i]
        if isinstance(entry, int):
            nodes[i] = CotreeLeaf(entry)
        else:
            nodes[i] = _chain([nodes[c] for c in entry[1]], entry[0])
    return Cotree(nodes[0])


def realize_cotree(t: Cotree) -> Graph:
    """The cograph denoted by the tree: 0-nodes union, 1-nodes join."""
    edges: list[tuple[int, int]] = []

    def join(lm: int, rm: int) -> int:
        edges.extend((u, v) for u in bits(lm) for v in bits(rm))
        return lm | rm

    fold(t, lambda v: 1 << v, or_, join)
    return Graph(t.n, edges)


def cotree_sexpr(t: Cotree) -> str:
    """Render the tree as a nested s-expression, e.g. ``(1 (0 0 1) 2)``."""
    out: list[str] = []
    stack: list = [t.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, CotreeLeaf):
            out.append(str(item.vertex))
        else:
            out.append(f"({item.label} ")
            stack.extend((")", item.right, " ", item.left))
    return "".join(out)


def parse_cotree_sexpr(text: str) -> Cotree:
    """Inverse of :func:`cotree_sexpr`."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    # Open frames hold [label, left, right] as they fill; frames[0] takes the root.
    frames: list[list] = [[]]
    for token in tokens:
        if token == "(":
            frames.append([])
        elif token == ")":
            if len(frames) == 1 or len(frames[-1]) != 3:
                raise ValueError("malformed cotree expression")
            label, left, right = frames.pop()
            frames[-1].append(CotreeInner(label, left, right))
        elif len(frames) > 1 and not frames[-1]:
            frames[-1].append(int(token))
        else:
            frames[-1].append(CotreeLeaf(int(token)))
    if len(frames) != 1 or len(frames[0]) != 1:
        raise ValueError("malformed cotree expression")
    return Cotree(frames[0][0])


def proper_colouring(t: Cotree) -> tuple[int, ...]:
    """A proper colouring of the realised cograph using exactly chi colours.

    Colours are handed out top-down: both children of a union start at their
    parent's first colour, and a join's right child starts after the
    ``chi`` colours of its left child.
    """
    chi = t.stats().chi
    colouring = [0] * t.n
    stack: list = [(t.root, 1)]
    while stack:
        node, first = stack.pop()
        if isinstance(node, CotreeLeaf):
            colouring[node.vertex] = first
        else:
            stack.append((node.left, first))
            stack.append((node.right, first + chi[node.left.index] if node.label else first))
    used = len(set(colouring))
    if used != t.chi:
        raise CertificateError(f"colouring uses {used} colours, chi is {t.chi}")
    return tuple(colouring)
