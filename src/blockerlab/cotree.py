"""Binary cotrees: construction, realisation and per-node statistics.

A cotree is a rooted binary tree whose leaves are the vertices of a cograph
and whose interior nodes are labelled 0 (disjoint union) or 1 (join).  Both
colouring dynamic programmes run over this structure, so the tree keeps a
postorder index per node together with subtree sizes and chromatic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import CertificateError, NotACographError
from .graph import Graph, bits, contains_induced, induced_subgraph, path_graph


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


@dataclass(frozen=True)
class NodeStats:
    """Subtree size and chromatic number, indexed by postorder node index."""

    size: tuple[int, ...]
    chi: tuple[int, ...]


class Cotree:
    """A rooted binary cotree with postorder-indexed nodes.

    Every inner node has exactly two children.  ``leaves[i]`` is the leaf
    carrying vertex ``i``; the leaf set must be exactly ``0 .. n-1``.
    """

    def __init__(self, root: CotreeNode):
        self.root = root
        self.postorder: list[CotreeNode] = []
        vertices = []
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done or isinstance(node, CotreeLeaf):
                node.index = len(self.postorder)
                self.postorder.append(node)
                if isinstance(node, CotreeLeaf):
                    vertices.append(node.vertex)
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        if sorted(vertices) != list(range(len(vertices))):
            raise ValueError("cotree leaves must carry vertices 0..n-1 exactly once")
        self.n = len(vertices)
        sizes = [0] * len(self.postorder)
        chis = [0] * len(self.postorder)
        verts: list[tuple[int, ...]] = [()] * len(self.postorder)
        for node in self.postorder:
            if isinstance(node, CotreeLeaf):
                sizes[node.index] = 1
                chis[node.index] = 1
                verts[node.index] = (node.vertex,)
            else:
                li, ri = node.left.index, node.right.index
                sizes[node.index] = sizes[li] + sizes[ri]
                if node.label == 0:
                    chis[node.index] = max(chis[li], chis[ri])
                else:
                    chis[node.index] = chis[li] + chis[ri]
                verts[node.index] = verts[li] + verts[ri]
        self._stats = NodeStats(size=tuple(sizes), chi=tuple(chis))
        self.subtree_vertices = tuple(verts)

    @property
    def chi(self) -> int:
        return self._stats.chi[self.root.index]

    def stats(self) -> NodeStats:
        return self._stats


def _chain(nodes: list[CotreeNode], label: int) -> CotreeNode:
    # Left-nested binarisation; the DPs are associativity-invariant.
    out = nodes[0]
    for nxt in nodes[1:]:
        out = CotreeInner(label, out, nxt)
    return out


def build_cotree(g: Graph) -> Cotree:
    """Build a binary cotree for ``g`` by recursive complement-connectivity.

    Raises :class:`NotACographError` carrying an induced P4 when ``g`` is not
    a cograph.
    """
    if g.n == 0:
        raise ValueError("cannot build a cotree for the empty graph")

    def rec(vertices: list[int]) -> CotreeNode:
        if len(vertices) == 1:
            return CotreeLeaf(vertices[0])
        sub, _ = induced_subgraph(g, vertices)
        comps = sub.connected_components()
        if len(comps) > 1:
            parts = [[vertices[i] for i in comp] for comp in comps]
            parts.sort(key=min)
            return _chain([rec(p) for p in parts], 0)
        co_comps = sub.complement().connected_components()
        if len(co_comps) > 1:
            parts = [[vertices[i] for i in comp] for comp in co_comps]
            parts.sort(key=min)
            return _chain([rec(p) for p in parts], 1)
        hit = contains_induced(sub, path_graph(4))
        if hit is None:
            raise CertificateError("connected, co-connected, n>1 implies an induced P4")
        raise NotACographError(tuple(vertices[i] for i in hit))

    return Cotree(rec(list(range(g.n))))


def realize_cotree(t: Cotree) -> Graph:
    """The cograph denoted by the tree: 0-nodes union, 1-nodes join."""
    edges: list[tuple[int, int]] = []
    masks: list[int] = [0] * len(t.postorder)
    for node in t.postorder:
        if isinstance(node, CotreeLeaf):
            masks[node.index] = 1 << node.vertex
        else:
            lm, rm = masks[node.left.index], masks[node.right.index]
            if node.label == 1:
                for u in bits(lm):
                    for v in bits(rm):
                        edges.append((u, v))
            masks[node.index] = lm | rm
    return Graph(t.n, edges)


def cotree_sexpr(t: Cotree) -> str:
    """Render the tree as a nested s-expression, e.g. ``(1 (0 0 1) 2)``."""

    def rec(node: CotreeNode) -> str:
        if isinstance(node, CotreeLeaf):
            return str(node.vertex)
        return f"({node.label} {rec(node.left)} {rec(node.right)})"

    return rec(t.root)


def parse_cotree_sexpr(text: str) -> Cotree:
    """Inverse of :func:`cotree_sexpr`."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("malformed cotree expression")
        pos += 1
        return tokens[pos - 1]

    def parse() -> CotreeNode:
        token = take()
        if token == "(":
            label = int(take())
            left = parse()
            right = parse()
            if take() != ")":
                raise ValueError("malformed cotree expression")
            return CotreeInner(label, left, right)
        return CotreeLeaf(int(token))

    root = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens in cotree expression")
    return Cotree(root)


def proper_colouring(t: Cotree) -> tuple[int, ...]:
    """A proper colouring of the realised cograph using exactly chi colours."""
    classes: list[list[tuple[int, ...]]] = [[] for _ in t.postorder]
    for node in t.postorder:
        if isinstance(node, CotreeLeaf):
            classes[node.index] = [(node.vertex,)]
        else:
            left = classes[node.left.index]
            right = classes[node.right.index]
            if node.label == 1:
                classes[node.index] = left + right
            else:
                merged = []
                for i in range(max(len(left), len(right))):
                    a = left[i] if i < len(left) else ()
                    b = right[i] if i < len(right) else ()
                    merged.append(a + b)
                classes[node.index] = merged
    colouring = [0] * t.n
    root_classes = classes[t.root.index]
    if len(root_classes) != t.chi:
        raise CertificateError(f"colouring uses {len(root_classes)} colours, chi is {t.chi}")
    for colour, group in enumerate(root_classes, start=1):
        for v in group:
            colouring[v] = colour
    return tuple(colouring)
