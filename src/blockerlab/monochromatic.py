"""Minimum monochromatic edges for colourings of cographs.

Two independent dynamic programmes over the cotree:

* :func:`min_mono_edges_fixed_h` tracks, per node, the colour-class size
  vector of an h-colouring sorted in descending order (relabelling colours
  changes no count).  Inner nodes enumerate every distinct alignment of the
  two children's classes; size-rank alignment (Property 1) is not used, so
  this DP checks the other one independently;
* :func:`min_mono_edges_deficiency` answers the "chi minus d colours"
  question directly.  Its state is an ascending tuple of upper bounds on the
  smallest colour classes plus a colour-deficiency budget.  At union nodes
  the children's classes are aligned by size rank; at join nodes the children
  share exactly ``lambda`` colours, described by a matching between their
  smallest class indices whose value counts the cross monochromatic edges.
  Join nodes draw child bounds only from the child's Pareto frontier: the
  finite (bounds, value) pairs that no pointwise smaller bounds tuple matches
  in value, built once per child, tuple length and deficiency.

Both reconstruct an optimal colouring from stored argmin choices, and they
are cross-checked against each other and against the brute-force oracle in
the test suite.  A colouring with at most ``m`` monochromatic edges is the
same thing as deleting at most ``m`` edges to push the chromatic number down
to the colour budget; :func:`monochromatic_edge_set` converts.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from operator import add, mul
from typing import Optional, Sequence

from .cotree import Cotree, CotreeLeaf, proper_colouring
from .errors import CertificateError, check_capacity, configured_budget
from .graph import Edge, Graph, bits, to_mask

Colouring = tuple[int, ...]

# The budget counts memo states, but a join node tries C(mq, lam) * P(mr, lam)
# matchings per pair of frontier tuples, with lam <= d: work that no budget
# counts, so d stays capped until a meter charges it.
MAX_SUPPORTED_DEFICIENCY = 3

INF = math.inf


def count_monochromatic_edges(g: Graph, c: Sequence[int]) -> int:
    """Number of edges whose endpoints share a colour; ``c`` must be total."""
    if len(c) != g.n:
        raise ValueError(f"colouring covers {len(c)} of {g.n} vertices")
    return sum(1 for u, v in g.edges() if c[u] == c[v])


def monochromatic_edge_set(g: Graph, c: Sequence[int]) -> frozenset[Edge]:
    """The monochromatic edges of ``c``: deleting them makes ``c`` proper."""
    if len(c) != g.n:
        raise ValueError(f"colouring covers {len(c)} of {g.n} vertices")
    return frozenset((u, v) for u, v in g.edges() if c[u] == c[v])


def recolour_module(g: Graph, c: Sequence[int], module) -> Colouring:
    """Recolour an independent common-neighbourhood set with its best colour.

    All of ``module`` gets the colour already present on it that appears
    least often on the (shared) neighbourhood, so the monochromatic count
    never increases.
    """
    module = frozenset(module)
    if not module:
        raise ValueError("module must be non-empty")
    if len(c) != g.n:
        raise ValueError("colouring must be total")
    inside = to_mask(module)
    nbhd = 0
    for v in module:
        nbhd |= g.adj[v]
    for v in module:
        if g.adj[v] != nbhd & ~inside or g.adj[v] & inside:
            raise ValueError("module vertices must share the same neighbourhood")
    outside = [w for w in bits(nbhd)]
    own_colours = sorted({c[v] for v in module})
    best = min(own_colours, key=lambda j: (sum(1 for w in outside if c[w] == j), j))
    out = list(c)
    for v in module:
        out[v] = best
    return tuple(out)


# -- fixed number of colours ---------------------------------------------------


def min_mono_edges_fixed_h(t: Cotree, h: int) -> tuple[int, Colouring]:
    """Minimum monochromatic edges over all h-colourings of the cograph.

    Each node's table maps the colour-class size vector, sorted in descending
    order, to the least monochromatic count of a colouring of its subtree
    with those class sizes; relabelling colours never changes a count, so
    the sorted key loses nothing.  An inner node pairs every left key with
    every distinct arrangement of every right key (classes in the same
    position share a colour) and sorts the summed vector again.  At a join
    node classes sharing a colour meet across every edge, adding the dot
    product of the two aligned vectors.  Size-rank alignment (Property 1) is
    deliberately not assumed, so this DP stays an independent check of
    :func:`min_mono_edges_deficiency`.
    """
    if h < 1:
        raise ValueError("h must be at least 1")
    stats = t.stats()
    if h >= stats.chi[t.root.index]:
        return 0, proper_colouring(t)

    cells = sum(
        math.comb(stats.size[node.index] + h - 1, h - 1) for node in t.postorder
    )
    check_capacity(cells, "table cells")

    # tables[i][key] = (cost, left key, right key, arrangement) where the
    # right key's class arrange[j] shares a colour with the left key's class j.
    tables: list[dict[tuple[int, ...], tuple]] = [{} for _ in t.postorder]
    arrangements: dict[tuple[int, ...], list] = {}
    for node in t.postorder:
        table = tables[node.index]
        if isinstance(node, CotreeLeaf):
            table[(1,) + (0,) * (h - 1)] = (0, None, None, None)
            continue
        join = node.label == 1
        right = []
        for ar, (vr, *_) in sorted(tables[node.right.index].items()):
            if ar not in arrangements:
                arrangements[ar] = _arrangements(ar)
            right.append((ar, vr, arrangements[ar]))
        for aq, (vq, *_) in sorted(tables[node.left.index].items()):
            for ar, vr, options in right:
                base = vq + vr
                for arranged, arrange in options:
                    cost = base + sum(map(mul, aq, arranged)) if join else base
                    key = tuple(sorted(map(add, aq, arranged), reverse=True))
                    cur = table.get(key)
                    if cur is None or cost < cur[0]:
                        table[key] = (cost, aq, ar, arrange)

    root_table = tables[t.root.index]
    best_key = min(root_table, key=lambda k: (root_table[k][0], k))
    best = root_table[best_key][0]

    # Walk down with each node's slot -> colour map; an explicit stack keeps
    # deep cotrees clear of the recursion limit.
    colouring = [0] * t.n
    stack = [(t.root, best_key, tuple(range(1, h + 1)))]
    while stack:
        node, key, colours = stack.pop()
        if isinstance(node, CotreeLeaf):
            colouring[node.vertex] = colours[0]
            continue
        _, aq, ar, arrange = tables[node.index][key]
        merged = [aq[j] + ar[arrange[j]] for j in range(h)]
        # Any descending order of ``merged`` lines its positions up with ``key``.
        order = sorted(range(h), key=lambda j: -merged[j])
        left_colours = [0] * h
        for slot, j in enumerate(order):
            left_colours[j] = colours[slot]
        right_colours = [0] * h
        for j, i in enumerate(arrange):
            right_colours[i] = left_colours[j]
        stack.append((node.left, aq, tuple(left_colours)))
        stack.append((node.right, ar, tuple(right_colours)))
    return best, tuple(colouring)


def _arrangements(key: tuple[int, ...]):
    """Distinct ``(arranged, arrange)`` pairs with ``arranged[j] == key[arrange[j]]``."""
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for arrange in permutations(range(len(key))):
        seen.setdefault(tuple(key[i] for i in arrange), arrange)
    return list(seen.items())


# -- fixed colour deficiency ---------------------------------------------------


def min_mono_edges_deficiency(t: Cotree, d: int) -> tuple[int, Colouring]:
    """Minimum monochromatic edges over colourings with chi - d colours.

    Refuses with :class:`CapacityExceededError` a run whose memo passes the
    configured budget.
    """
    chi = t.stats().chi[t.root.index]
    if d < 0:
        raise ValueError("d must be non-negative")
    if d > MAX_SUPPORTED_DEFICIENCY:
        raise ValueError(f"d <= {MAX_SUPPORTED_DEFICIENCY} supported, got {d}")
    if d > chi - 1:
        raise ValueError(f"d must be below the chromatic number {chi}")
    dp = _DeficiencyDP(t)
    value = dp.value(t.root, (), d)
    if value is INF:
        raise CertificateError(
            f"deficiency DP found no colouring with {chi - d} colours"
        )
    classes = dp.classes(t.root, (), d)
    colouring = [0] * t.n
    for idx, group in enumerate(classes, start=1):
        for v in group:
            colouring[v] = idx
    return int(value), tuple(colouring)


def _suffix_min(values: Sequence[int]) -> tuple[int, ...]:
    out = list(values)
    for i in range(len(out) - 2, -1, -1):
        if out[i] > out[i + 1]:
            out[i] = out[i + 1]
    return tuple(out)


def _ascending_tuples(length: int, cap: int, caps: Optional[Sequence[int]] = None):
    """Non-decreasing tuples with entries in [0, cap] (pointwise caps win),
    in lexicographic order."""
    result: list[tuple[int, ...]] = [()]
    for i in range(length):
        top = cap if caps is None else min(cap, caps[i])
        result = [b + (v,) for b in result for v in range(b[-1] if b else 0, top + 1)]
    return result


def _run(frame, open_frame):
    """Drive generator frames with an explicit stack instead of recursion.

    A frame yields the arguments of a sub-call and is sent back its result;
    ``open_frame(*args)`` returns ``(frame, None)`` to run a new frame or
    ``(None, result)`` for a result known already.  Returns the result of
    ``frame``, however deep the sub-calls nest.
    """
    stack, sent = [frame], None
    while stack:
        try:
            args = stack[-1].send(sent)
        except StopIteration as stop:
            stack.pop()
            sent = stop.value
            continue
        frame, sent = open_frame(*args)
        if frame is not None:
            stack.append(frame)
    return sent


class _DeficiencyDP:
    """Top-down memoised evaluation of the deficiency DP over one cotree.

    A state is (node, bounds, delta): colourings of the node's subtree into
    exactly ``chi(subtree) - delta`` colour slots (some possibly unused) that
    respect the size-rank alignment at union nodes, where the i-th smallest
    slot holds at most ``bounds[i]`` vertices; ``bounds`` is non-decreasing.
    Bounds beyond the number of slots are vacuous; an unsatisfiable state has
    value infinity.

    A join node takes child bounds from the child's frontier: the finite
    ``(bounds, value)`` pairs of one (child, length, delta) that no pointwise
    smaller tuple matches in value (:meth:`_frontier`).  The cross cost
    ``sum bq[i] * br[j]`` and the merged class sizes only grow with the child
    bounds, so a dominated tuple never beats the frontier tuple below it.
    Each frontier is built once per run and shared by every parent state,
    and a pair of child tuples is dropped before its matchings are tried
    when even their sorted union overflows the parent's bounds.  All caches
    live on the instance, and the memo is capped by the configured budget.

    States and reconstruction steps are generator frames run by :func:`_run`:
    a frame yields ``(node, bounds, delta)`` where it needs that state's
    value or classes, so cotree depth is not bounded by the recursion limit.
    """

    def __init__(self, t: Cotree):
        stats = t.stats()
        self.size = stats.size
        self.chi = stats.chi
        self.budget = configured_budget(None)
        self.memo: dict = {}
        self.choice: dict = {}
        self.frontiers: dict = {}

    def value(self, node, bounds: tuple[int, ...], delta: int):
        frame, known = self._open_state(node, bounds, delta)
        return known if frame is None else _run(frame, self._open_state)

    def _open_state(self, node, bounds, delta):
        key = (node.index, bounds, delta)
        if key in self.memo:
            return None, self.memo[key]
        if len(self.memo) >= self.budget:
            check_capacity(len(self.memo) + 1, "memo states", self.budget)
        return self._state(node, bounds, delta), None

    def _state(self, node, bounds, delta):
        key = (node.index, bounds, delta)
        slots = self.chi[node.index] - delta
        if slots < 1:
            self.memo[key] = INF
            return INF
        if isinstance(node, CotreeLeaf):
            ok = len(bounds) == 0 or bounds[0] >= 1
            value = 0 if ok else INF
            choice = ("leaf",)
        elif node.label == 0:
            value, choice = yield from self._union_node(node, bounds, delta)
        else:
            value, choice = yield from self._join_node(node, bounds, delta)
        if bounds:
            # The smallest slot may stay unused: it satisfies its bound for
            # free and the rest of the colouring lives in one slot fewer.
            unused = yield node, bounds[1:], delta + 1
            if unused < value:
                value, choice = unused, ("empty", bounds[1:], delta + 1)
        self.memo[key] = value
        self.choice[key] = choice
        return value

    def _frontier(self, node, m: int, delta: int):
        """Finite Pareto-minimal ``(bounds, value)`` pairs of length ``m``.

        A tuple is dropped when a tuple one step below it (one entry less by
        one) has no larger value.  Chains of such steps reach every tuple
        pointwise below, and the value never falls along them (a larger
        bound admits every choice a smaller one does, at no higher cost), so
        what is left is exactly the Pareto frontier.
        """
        key = (node.index, m, delta)
        front = self.frontiers.get(key)
        if front is not None:
            return front
        values: dict[tuple[int, ...], float] = {}
        front = []
        # Lexicographic order: every tuple comes after those one step below.
        for b in _ascending_tuples(m, self.size[node.index]):
            v = values[b] = yield node, b, delta
            if v is INF:
                continue
            lower = 0
            for i, x in enumerate(b):
                if x > lower and values[b[:i] + (x - 1,) + b[i + 1 :]] <= v:
                    break
                lower = x
            else:
                front.append((b, v))
        self.frontiers[key] = front
        return front

    def _ordered_children(self, node):
        q, r = node.left, node.right
        if self.chi[q.index] >= self.chi[r.index]:
            return q, r
        return r, q

    def _union_node(self, node, bounds, delta):
        q, r = self._ordered_children(node)
        delta_gap = self.chi[q.index] - self.chi[r.index]
        # Classes align by size rank, largest first.  q's smallest ``off``
        # bounded slots are the ones it has beyond r's ``chi - dr``, so they
        # live in q alone; every other bound is shared by the two children.
        off = min(len(bounds), max(delta_gap - delta, 0))
        dr = max(delta - delta_gap, 0)
        head, tail = bounds[:off], bounds[off:]
        size_q, size_r = self.size[q.index], self.size[r.index]
        best, best_choice = INF, None
        caps = [min(b, size_q) for b in tail]
        for suffix in _ascending_tuples(len(tail), size_q, caps):
            # Both parts ascend; only the exclusive head can exceed the suffix.
            bq = _suffix_min(head + suffix) if head else suffix
            vq = yield q, bq, delta
            if vq is INF:
                continue
            br = _suffix_min([min(b - x, size_r) for b, x in zip(tail, suffix)])
            vr = yield r, br, dr
            if vq + vr < best:
                best = vq + vr
                best_choice = ("union", q, r, bq, delta, br, dr)
        return best, best_choice

    def _join_node(self, node, bounds, delta):
        q, r = node.left, node.right
        ell = len(bounds)
        best, best_choice = INF, None
        for lam in range(delta + 1):
            for dq in range(delta - lam + 1):
                dr = delta - lam - dq
                slots_q = self.chi[q.index] - dq
                slots_r = self.chi[r.index] - dr
                if slots_q < 1 or slots_r < 1:
                    continue
                mq = min(ell + lam, slots_q)
                mr = min(ell + lam, slots_r)
                if lam > min(mq, mr):
                    continue
                checked = min(ell, mq + mr - lam)
                front_q = yield from self._frontier(q, mq, dq)
                front_r = yield from self._frontier(r, mr, dr)
                for bq, vq in front_q:
                    for br, vr in front_r:
                        base = vq + vr
                        if base >= best:
                            continue
                        # A merge sums matched pairs, so entry by entry it is
                        # at least the sorted union of both tuples: if that
                        # overflows the parent's bounds, no matching fits.
                        floor = sorted(bq + br)
                        if any(floor[i] > bounds[i] for i in range(checked)):
                            continue
                        for mu in _lambda_matchings(mq, mr, lam):
                            cost = base + sum(bq[i] * br[j] for i, j in mu)
                            if cost >= best:
                                continue
                            merged = _merge(mu, bq, br)
                            if all(merged[i] <= bounds[i] for i in range(checked)):
                                best = cost
                                best_choice = ("join", q, r, bq, dq, br, dr, mu)
        return best, best_choice

    # -- reconstruction --------------------------------------------------------

    def classes(self, node, bounds: tuple[int, ...], delta: int):
        """Colour classes of the chosen optimum, ascending, empties included."""
        return _run(self._classes(node, bounds, delta), self._open_classes)

    def _open_classes(self, node, bounds, delta):
        return self._classes(node, bounds, delta), None

    def _classes(self, node, bounds, delta):
        choice = self.choice[(node.index, bounds, delta)]
        if choice[0] == "leaf":
            return [(node.vertex,)]
        if choice[0] == "empty":
            _, rest, ndelta = choice
            return [()] + (yield node, rest, ndelta)
        if choice[0] == "union":
            _, q, r, bq, dq, br, dr = choice
            cq = yield q, bq, dq
            cr = yield r, br, dr
            offset = len(cq) - len(cr)
            if offset < 0:
                raise CertificateError(
                    f"union node: {len(cq)} left classes against {len(cr)} right"
                )
            return [
                tuple(sorted(cq[i] + (cr[i - offset] if i >= offset else ())))
                for i in range(len(cq))
            ]
        _, q, r, bq, dq, br, dr, mu = choice
        cq = yield q, bq, dq
        cr = yield r, br, dr
        lefts = {i for i, _ in mu}
        rights = {j for _, j in mu}
        groups = [tuple(sorted(cq[i] + cr[j])) for i, j in mu]
        groups += [cq[i] for i in range(len(cq)) if i not in lefts]
        groups += [cr[j] for j in range(len(cr)) if j not in rights]
        return sorted(groups, key=lambda grp: (len(grp), grp))


def _lambda_matchings(mq: int, mr: int, lam: int):
    if lam == 0:
        yield ()
        return
    for lefts in combinations(range(mq), lam):
        for rights in permutations(range(mr), lam):
            yield tuple(zip(lefts, rights))


def _merge(mu, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sorted merge: matched sums plus unmatched entries of both tuples."""
    lefts = {i for i, _ in mu}
    rights = {j for _, j in mu}
    merged = [a[i] + b[j] for i, j in mu]
    merged += [a[i] for i in range(len(a)) if i not in lefts]
    merged += [b[j] for j in range(len(b)) if j not in rights]
    return sorted(merged)


# -- structural property of rank-aligned colourings ----------------------------


def has_property_one(t: Cotree, c: Sequence[int]) -> bool:
    """Check size-rank colour alignment at every union node.

    At a union node the i-th largest colour class of one child must share its
    colour with the i-th largest class of the other, for every rank where
    both are non-empty.  Ties in class sizes are resolved existentially: the
    check passes if any size-respecting rank assignment works.
    """
    if len(c) != t.n:
        raise ValueError("colouring must be total")
    # Colour histograms of every subtree, built in one postorder pass; a
    # child's histogram is dropped once its parent has merged it.
    hists: list = [None] * len(t.postorder)
    for node in t.postorder:
        if isinstance(node, CotreeLeaf):
            hists[node.index] = {c[node.vertex]: 1}
            continue
        hist_q, hist_r = hists[node.left.index], hists[node.right.index]
        hists[node.left.index] = hists[node.right.index] = None
        if node.label == 0 and not _ranks_alignable(hist_q, hist_r):
            return False
        for colour, count in hist_r.items():
            hist_q[colour] = hist_q.get(colour, 0) + count
        hists[node.index] = hist_q
    return True


def _rank_interval(hist: dict[int, int], colour: int) -> tuple[int, int]:
    s = hist[colour]
    bigger = sum(1 for x in hist.values() if x > s)
    at_least = sum(1 for x in hist.values() if x >= s)
    return bigger + 1, at_least


def _ranks_alignable(hist_q: dict[int, int], hist_r: dict[int, int]) -> bool:
    m = min(len(hist_q), len(hist_r))
    shared = set(hist_q) & set(hist_r)
    if len(shared) != m:
        return False
    intervals = []
    for colour in shared:
        lo_q, hi_q = _rank_interval(hist_q, colour)
        lo_r, hi_r = _rank_interval(hist_r, colour)
        lo, hi = max(lo_q, lo_r), min(hi_q, hi_r, m)
        if lo > hi:
            return False
        intervals.append((hi, lo))
    # Greedy system of distinct ranks over intervals.
    taken: set[int] = set()
    for hi, lo in sorted(intervals):
        rank = next((x for x in range(lo, hi + 1) if x not in taken), None)
        if rank is None:
            return False
        taken.add(rank)
    return True
