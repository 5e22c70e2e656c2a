"""Minimum monochromatic edges for colourings of cographs.

Two independent dynamic programmes over the cotree:

* :func:`min_mono_edges_fixed_h` tracks, per node, the colour-class size
  vector of an h-colouring sorted in descending order (relabelling colours
  changes no count).  Inner nodes enumerate every distinct alignment of the
  two children's classes; size-rank alignment (Property 1) is not used, so
  this DP checks the other one independently.  Its tables are pruned under
  the count of one greedy h-colouring (:func:`_merged_colouring`): an entry
  whose cost, plus the least its completion must still add, passes that
  count cannot lie under an optimum, and dropping it changes no answer;
* :func:`min_mono_edges_deficiency` answers the "chi minus d colours"
  question directly.  Its state is an ascending tuple of upper bounds on the
  smallest colour classes plus a colour-deficiency budget.  At union nodes
  the children's classes are aligned by size rank; at join nodes the children
  share exactly ``lambda`` colours, described by a matching between their
  smallest class indices whose value counts the cross monochromatic edges.
  Both node kinds draw child bounds from the child's Pareto frontier: the
  finite (bounds, value) pairs that no pointwise smaller bounds tuple matches
  in value, built once per child, tuple length and deficiency (at a union
  node, for the child with more colours).  Bounds are canonical: each is
  capped at the most its colour class can hold, so states that admit the
  same colourings share one memo entry.  A memo state costs about 450 to 550
  bytes with its share of choices and frontiers; with d = 3 a 150-vertex
  threshold chain needs 3,198 states (0.1 s), and with d = 1 an 1100-vertex
  chain about 6,000.

Both reconstruct an optimal colouring from stored argmin choices, and they
are cross-checked against each other and against the brute-force oracle in
the test suite.  A colouring with at most ``m`` monochromatic edges is the
same thing as deleting at most ``m`` edges to push the chromatic number down
to the colour budget; :func:`monochromatic_edge_set` converts.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations
from operator import add, mul
from typing import Sequence

from .cotree import Cotree, CotreeLeaf, fold, proper_colouring
from .errors import CertificateError, check_capacity, configured_budget
from .graph import Colouring, Edge, Graph, bits, to_mask

# The budget counts memo states, but a join node tries C(mq, lam) * P(mr, lam)
# matchings per pair of frontier tuples, with lam <= d: work that no budget
# counts, so d stays capped until a meter charges it.
MAX_SUPPORTED_DEFICIENCY = 3

INF = math.inf


def count_monochromatic_edges(g: Graph, c: Sequence[int]) -> int:
    """Number of edges whose endpoints share a colour; ``c`` must be total."""
    return len(monochromatic_edge_set(g, c))


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

    The tables are pruned under one upper bound ``U``, the count of the
    h-colouring :func:`_merged_colouring` builds, and the pruning changes no
    answer.  ``joined[node]`` counts the vertices outside the subtree that
    are joined to all of it (the far sides of its join ancestors).  Each of
    them shares its colour with a class of at least ``key[-1]`` subtree
    vertices, so every colouring that extends an entry costs at least
    ``cost + joined[node] * key[-1]``, and a candidate above ``U`` is never
    inserted.  Why the answer stays: a key's cheapest candidate costs at
    least each child entry plus that child's own term, because a parent's
    classes are no smaller than a child's and, at a join, the dot product is
    at least the child's smallest class times the other child's size.  So
    when a key's least cost passes the test, the child entries of its first
    cheapest candidate pass too, and by induction from the leaves every kept
    key keeps the entry of the unpruned table: the candidates left are a
    subsequence of the unpruned ones, and the first cheapest is among them.
    The optimum is at most ``U`` and ``joined`` is 0 at the root, so the
    root keeps the optimal key, and count and colouring are bit-identical to
    the unpruned DP's.  The cells budget still counts the unpruned tables.
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

    bound = _merged_colouring(t, h)[0]
    joined = [0] * len(t.postorder)
    for node in reversed(t.postorder):
        if not isinstance(node, CotreeLeaf):
            q, r = node.left, node.right
            joined[q.index] = joined[node.index] + node.label * stats.size[r.index]
            joined[r.index] = joined[node.index] + node.label * stats.size[q.index]

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
        outside = joined[node.index]
        right = []
        for ar, (vr, *_) in sorted(tables[node.right.index].items()):
            if ar not in arrangements:
                arrangements[ar] = _arrangements(ar)
            right.append((ar, vr, arrangements[ar]))
        for aq, (vq, *_) in sorted(tables[node.left.index].items()):
            for ar, vr, options in right:
                base = vq + vr
                # The two tests on ``base`` and ``cost`` are the key's test
                # made early, where the cost alone already fails it.
                if base > bound:
                    continue
                for arranged, arrange in options:
                    cost = base + sum(map(mul, aq, arranged)) if join else base
                    if cost > bound:
                        continue
                    key = tuple(sorted(map(add, aq, arranged), reverse=True))
                    if cost + outside * key[-1] > bound:
                        continue
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


def _merged_colouring(t: Cotree, h: int) -> tuple[int, Colouring]:
    """An h-colouring of the cograph and its monochromatic count.

    Starting from :func:`proper_colouring`, the two colour classes with the
    fewest edges between them (the least such pair of colours on ties) are
    merged, into the smaller colour, until ``h`` classes are left.  A join
    node's two sides meet across every pair of vertices, so the edges
    between two classes are folded over the join nodes from each side's
    colour counts, and no graph is built.  A heap of ``(edges, a, b)``
    entries finds each pair; an entry whose count has since grown, or whose
    class is merged away, is skipped when it comes up.
    """
    colouring = proper_colouring(t)
    chi = t.chi
    if h >= chi:
        return 0, colouring
    between = [[0] * (chi + 1) for _ in range(chi + 1)]

    def merge(cq: dict, cr: dict) -> dict:
        for b, y in cr.items():
            cq[b] = cq.get(b, 0) + y
        return cq

    def join(cq: dict, cr: dict) -> dict:
        for a, x in cq.items():
            row = between[a]
            for b, y in cr.items():
                row[b] += x * y
                between[b][a] += x * y
        return merge(cq, cr)

    # A child's counts become its parent's, so one dict per leaf is all.
    fold(t, lambda v: {colouring[v]: 1}, merge, join)
    heap = [(between[a][b], a, b) for a, b in combinations(range(1, chi + 1), 2)]
    heapify(heap)
    # into[c] is the colour that colour c has been merged into.
    into = list(range(chi + 1))
    live = set(range(1, chi + 1))
    count = 0
    while len(live) > h:
        edges, a, b = heappop(heap)
        if a not in live or b not in live or between[a][b] != edges:
            continue
        count += edges
        live.remove(b)
        into = [a if x == b else x for x in into]
        for c in live:
            if c != a and between[b][c]:
                between[a][c] = between[c][a] = between[a][c] + between[b][c]
                heappush(heap, (between[a][c], min(a, c), max(a, c)))
    colour = {a: i for i, a in enumerate(sorted(live), start=1)}
    return count, tuple(colour[into[c]] for c in colouring)


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


def _ascending_tuples(caps: Sequence[int]):
    """Non-decreasing tuples with ``0 <= t[i] <= caps[i]``, in lexicographic
    order."""
    result: list[tuple[int, ...]] = [()]
    for top in caps:
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

    Every state has one canonical key: ``bounds[i]`` is capped at
    ``size // (slots - i)`` (:meth:`_caps`).  The node's ``size`` vertices
    fill ``slots`` slots, and the i-th smallest slot is no larger than the
    ``slots - i`` slots from it upward, so it never holds more than the cap.
    A bound above its cap therefore admits exactly the colourings the cap
    admits, and states that differ only there share one memo and one choice
    entry.  The memo (:meth:`_open_state`) and the reconstruction
    (:meth:`_classes`) both form their keys through :meth:`_canonical`.

    Both node kinds take child bounds from the child's frontier: the finite
    ``(bounds, value)`` pairs of one (child, length, delta) that no pointwise
    smaller tuple matches in value (:meth:`_frontier`).  A union node reads
    the frontier of q, the child with more colours, and gives r what q
    leaves of the parent's bounds (:meth:`_union_node` says why no optimum
    is lost).  A join node reads both children's: the cross cost
    ``sum bq[i] * br[j]`` and the merged class sizes only grow with the child
    bounds, so a dominated tuple never beats the frontier tuple below it.
    Each frontier is built once per run and shared by every parent state,
    and at a join a pair of child tuples is dropped before its matchings are
    tried when even their sorted union overflows the parent's bounds.  All
    caches live on the instance, and the memo is capped by the configured
    budget.

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
        self.caps: dict = {}

    def value(self, node, bounds: tuple[int, ...], delta: int):
        frame, known = self._open_state(node, bounds, delta)
        return known if frame is None else _run(frame, self._open_state)

    def _caps(self, node, m: int, delta: int) -> tuple[int, ...]:
        """``size // (slots - i)`` for the ``m`` smallest slots ``i``;
        bounds past the last slot are vacuous, and capping drops them."""
        size, slots = self.size[node.index], self.chi[node.index] - delta
        return tuple(size // (slots - i) for i in range(min(m, slots)))

    def _canonical(self, node, bounds, delta):
        """``bounds`` capped pointwise: the one key of the state.

        Caps are kept per length, so a deep cotree with many slots stores
        no more of them than its bounds use.
        """
        key = (node.index, len(bounds), delta)
        caps = self.caps.get(key)
        if caps is None:
            caps = self.caps[key] = self._caps(node, len(bounds), delta)
        return tuple(map(min, bounds, caps))

    def _open_state(self, node, bounds, delta):
        if bounds:
            bounds = self._canonical(node, bounds, delta)
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

        Only tuples within the node's caps are enumerated, which leaves the
        frontier unchanged.  In a tuple with an entry above its cap, lower
        the first such entry by one: the entry before it is within its own
        cap, which is no larger, so the tuple still ascends, and both tuples
        cap to the same key, so they have the same value.  The rule above
        already drops such a tuple.
        """
        key = (node.index, m, delta)
        front = self.frontiers.get(key)
        if front is not None:
            return front
        values: dict[tuple[int, ...], float] = {}
        front = []
        # Lexicographic order: every tuple comes after those one step below.
        for b in _ascending_tuples(self._caps(node, m, delta)):
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
        """Best split of the parent's bounds between q and r.

        Classes align by size rank, largest first.  q's smallest ``off``
        bounded slots are the ones it has beyond r's ``chi - dr``, so they
        live in q alone; every other bound is shared by the two children,
        and r may fill what q leaves of it.  q's bounds come from its
        frontier, kept when they lie pointwise under the parent's bounds.

        This loses no optimum.  Any split ``x`` of the shared tail gives q
        the bounds ``suffix_min(head + x)``, and q's frontier holds a tuple
        ``f`` no larger with the same value.  Then ``f[off:] <= x``, so ``f``
        fits under the parent's bounds and leaves r at least as much room:
        r's value can only fall.  And a fitting frontier tuple is itself a
        split, whose colourings the parent's bounds admit.
        """
        q, r = self._ordered_children(node)
        delta_gap = self.chi[q.index] - self.chi[r.index]
        off = min(len(bounds), max(delta_gap - delta, 0))
        dr = max(delta - delta_gap, 0)
        tail = bounds[off:]
        size_r = self.size[r.index]
        best, best_choice = INF, None
        front = yield from self._frontier(q, len(bounds), delta)
        for bq, vq in front:
            if vq >= best or any(map(int.__gt__, bq, bounds)):
                continue
            br = _suffix_min([min(b - x, size_r) for b, x in zip(tail, bq[off:])])
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
        bounds = self._canonical(node, bounds, delta)
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
