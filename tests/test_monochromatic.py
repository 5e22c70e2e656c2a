import hashlib
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockerlab.catalogue import graph_catalogue
from blockerlab.cotree import build_cotree
from blockerlab.graph import Graph, complete_graph, complete_multipartite_graph, cycle_graph
from blockerlab.errors import BUDGET_ENV_VAR, CapacityExceededError
from blockerlab.monochromatic import (
    _merge,
    _merged_colouring,
    count_monochromatic_edges,
    min_mono_edges_deficiency,
    min_mono_edges_fixed_h,
    monochromatic_edge_set,
    recolour_module,
)
from blockerlab.oracle import brute_min_mono
from blockerlab.parameters import chi_exact
from helpers import has_property_one, join

# The benchmark's cotree generator, so the tests and the bench draw the same trees.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import random_cotree


def test_count_examples():
    assert count_monochromatic_edges(cycle_graph(4), (1, 2, 1, 2)) == 0
    assert count_monochromatic_edges(complete_graph(4), (1, 1, 1, 1)) == 6
    assert count_monochromatic_edges(complete_graph(4), (1, 1, 2, 2)) == 2
    assert brute_min_mono(complete_graph(4), 2)[0] == 2


def test_count_rejects_partial_colouring():
    with pytest.raises(ValueError):
        count_monochromatic_edges(cycle_graph(4), (1, 2, 1))


def test_edge_deletion_witness():
    g = complete_graph(4)
    assert monochromatic_edge_set(g, (1, 2, 3, 4)) == frozenset()
    assert monochromatic_edge_set(g, (1, 1, 1, 1)) == frozenset(g.edges())
    s = monochromatic_edge_set(g, (1, 1, 2, 2))
    assert s == {(0, 1), (2, 3)}
    from blockerlab.graph import delete_edges

    assert chi_exact(delete_edges(g, s)).value <= 2


def test_recolour_examples():
    g = complete_multipartite_graph((2, 2))
    out = recolour_module(g, (1, 2, 1, 1), [0, 1])
    assert count_monochromatic_edges(g, out) == 0
    # Single vertex: the only available colour is its own.
    assert recolour_module(g, (1, 2, 1, 1), [0]) == (1, 2, 1, 1)
    # Already uniform: unchanged when its colour is the best choice.
    out = recolour_module(g, (2, 2, 1, 1), [0, 1])
    assert out == (2, 2, 1, 1)


def test_recolour_never_increases_count():
    rng = random.Random(17)
    for _ in range(1000):
        # A twin class glued onto a random base graph is an independent
        # module with a shared neighbourhood.
        base_n = rng.randint(1, 5)
        base = Graph(
            base_n,
            [e for e in itertools.combinations(range(base_n), 2) if rng.random() < 0.5],
        )
        twins = rng.randint(1, 3)
        attach = [v for v in range(base_n) if rng.random() < 0.6]
        edges = base.edges() + [(v, base_n + t) for t in range(twins) for v in attach]
        g = Graph(base_n + twins, edges)
        module = list(range(base_n, base_n + twins))
        h = rng.randint(1, 3)
        colouring = tuple(rng.randint(1, h) for _ in range(g.n))
        out = recolour_module(g, colouring, module)
        assert count_monochromatic_edges(g, out) <= count_monochromatic_edges(g, colouring)
        assert len({out[v] for v in module}) == 1


def test_recolour_rejects_non_module():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        recolour_module(g, (1, 1, 1, 1), [0, 1])  # adjacent pair


def test_lambda_matching_figure_example():
    mu = ((0, 1), (2, 3), (3, 2))
    a, b = (5, 2, 7, 1), (3, 9, 4, 8)
    assert _merge(mu, a, b) == [2, 3, 5, 14, 15]


def test_lambda_edge_cases():
    assert _merge((), (1, 2), (3, 4)) == [1, 2, 3, 4]
    assert _merge(((0, 0), (1, 1)), (1, 1), (1, 1)) == [2, 2]


@given(
    entries=st.lists(st.integers(0, 9), min_size=1, max_size=5),
    entries2=st.lists(st.integers(0, 9), min_size=1, max_size=5),
    lam=st.integers(0, 5),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=120, deadline=None)
def test_lambda_merge_properties(entries, entries2, lam, seed):
    ell = min(len(entries), len(entries2))
    a, b = tuple(entries[:ell]), tuple(entries2[:ell])
    lam = min(lam, ell)
    rng = random.Random(seed)
    lefts = rng.sample(range(ell), lam)
    rights = rng.sample(range(ell), lam)
    mu = tuple(zip(lefts, rights))
    merged = _merge(mu, a, b)
    assert len(merged) == 2 * ell - lam
    assert all(merged[i] <= merged[i + 1] for i in range(len(merged) - 1))
    assert sum(merged) == sum(a) + sum(b)
    # Swapping the tuples and transposing every pair gives the same merge.
    assert _merge(tuple((j, i) for i, j in mu), b, a) == merged


def test_fixed_h_examples():
    assert min_mono_edges_fixed_h(build_cotree(complete_graph(4)), 2)[0] == 2
    assert min_mono_edges_fixed_h(build_cotree(cycle_graph(4)), 1)[0] == 4
    for g in (cycle_graph(4), complete_graph(3)):
        t = build_cotree(g)
        count, col = min_mono_edges_fixed_h(t, chi_exact(g).value)
        assert count == 0
        assert all(col[u] != col[v] for u, v in g.edges())


def test_fixed_h_four_colours_against_brute():
    # At h = 4 a class-size vector has up to 24 arrangements; chi >= 5 keeps
    # the DP from returning the proper colouring outright.
    from blockerlab.cotree import realize_cotree

    rng = random.Random(404)
    checked = 0
    while checked < 6:
        t = random_cotree(rng, rng.choice((8, 9)), 0.6)
        if t.chi < 5:
            continue
        g = realize_cotree(t)
        count, col = min_mono_edges_fixed_h(t, 4)
        assert count == brute_min_mono(g, 4)[0]
        assert count_monochromatic_edges(g, col) == count
        assert set(col) <= {1, 2, 3, 4}
        checked += 1


def test_merged_colouring_bounds_the_optimum():
    # The fixed-h DP prunes under this bound, so it must be the count of a
    # real h-colouring, and never below the optimum.
    from blockerlab.cotree import realize_cotree

    queries = 0
    for t in map(build_cotree, graph_catalogue("cograph", 7)):
        g = realize_cotree(t)
        for h in range(1, t.chi):
            bound, col = _merged_colouring(t, h)
            assert len(col) == g.n and set(col) <= set(range(1, h + 1))
            assert count_monochromatic_edges(g, col) == bound
            assert bound >= brute_min_mono(g, h)[0]
            queries += 1
    assert queries == 396


def _threshold_chain(n):
    from blockerlab.cotree import Cotree, CotreeInner, CotreeLeaf

    node = CotreeLeaf(0)
    for v in range(1, n):
        node = CotreeInner(v % 2, node, CotreeLeaf(v))
    return Cotree(node)


def test_fixed_h_deep_cotree_does_not_recurse():
    # A 1100-vertex threshold chain, built directly: its cotree is as deep
    # as it is wide, far past the interpreter's recursion limit.
    from blockerlab.cotree import realize_cotree

    t = _threshold_chain(1100)
    count, col = min_mono_edges_fixed_h(t, 2)
    assert count_monochromatic_edges(realize_cotree(t), col) == count
    assert set(col) <= {1, 2}


def test_deficiency_deep_cotree_does_not_recurse(monkeypatch):
    # Threshold chains (the 1100-vertex one of the fixed-h test among them)
    # have cotrees as deep as they are wide, far past the interpreter's
    # recursion limit.  One monochromatic edge is optimal with chi - 1
    # colours: vertex 0 and the odd vertices form the largest clique, and
    # every other even vertex can share the colour of an earlier odd one.
    from blockerlab.cotree import realize_cotree

    t = _threshold_chain(500)
    count, col = min_mono_edges_deficiency(t, 1)
    assert count == 1
    assert count_monochromatic_edges(realize_cotree(t), col) == 1
    assert len(set(col)) <= t.chi - 1
    # The full 1100-vertex chain needs about 6,000 states: it answers within
    # a budget of 20,000, and a budget below its need refuses it with a
    # structured error instead of a RecursionError.
    monkeypatch.setenv(BUDGET_ENV_VAR, "20000")
    assert min_mono_edges_deficiency(_threshold_chain(1100), 1)[0] == 1
    monkeypatch.setenv(BUDGET_ENV_VAR, "2000")
    with pytest.raises(CapacityExceededError):
        min_mono_edges_deficiency(_threshold_chain(1100), 1)


def test_deficiency_scales_within_a_small_budget(monkeypatch):
    # Canonical bounds keep the memo of large cographs small: with d = 3 the
    # 150-vertex threshold chain and an 80-vertex random cograph each needed
    # more than 20,000 states while a bound above its cap made a state of
    # its own, and now answer within that budget.
    from blockerlab.cotree import realize_cotree

    monkeypatch.setenv(BUDGET_ENV_VAR, "20000")
    chain = _threshold_chain(150)
    tree = random_cotree(random.Random(1), 80, 0.5)
    for t in (chain, tree):
        count, col = min_mono_edges_deficiency(t, 3)
        assert count_monochromatic_edges(realize_cotree(t), col) == count
        assert len(set(col)) <= t.chi - 3
        if t is chain:
            assert count == 3


def test_deficiency_memo_respects_budget(monkeypatch):
    t = build_cotree(complete_graph(6))
    assert min_mono_edges_deficiency(t, 2)[0] == 2  # classes 2, 2, 1, 1
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    with pytest.raises(CapacityExceededError) as info:
        min_mono_edges_deficiency(t, 2)
    assert info.value.budget == 10 and info.value.needed > 10


def test_deficiency_frontier_prunes_and_matches_fixed_h():
    # Random cographs with 18-24 vertices and chi 5-6: large enough that the
    # Pareto frontiers drop most bound tuples.  Each frontier is checked
    # against its definition, and each optimum against the fixed-h DP.
    from blockerlab.cotree import realize_cotree
    from blockerlab.monochromatic import INF, _DeficiencyDP

    rng = random.Random(1809)
    dropped = checked = 0
    while checked < 10:
        t = random_cotree(rng, rng.randint(18, 24), 0.4)
        if t.chi not in (5, 6):
            continue
        checked += 1
        g = realize_cotree(t)
        for d in (1, 2, 3):
            count, col = min_mono_edges_deficiency(t, d)
            assert count == min_mono_edges_fixed_h(t, t.chi - d)[0]
            assert count_monochromatic_edges(g, col) == count
            assert len(set(col)) <= t.chi - d
            dp = _DeficiencyDP(t)
            assert dp.value(t.root, (), d) == count
            for (index, m, delta), front in dp.frontiers.items():
                node = t.postorder[index]
                finite = {
                    b: v
                    for b in itertools.combinations_with_replacement(
                        range(t.stats().size[index] + 1), m
                    )
                    if (v := dp.value(node, b, delta)) is not INF
                }
                minimal = {
                    b: v
                    for b, v in finite.items()
                    if not any(
                        c != b and w <= v and all(map(int.__le__, c, b))
                        for c, w in finite.items()
                    )
                }
                assert dict(front) == minimal and len(front) == len(minimal)
                dropped += len(finite) - len(front)
    assert dropped > 1000


def _split_value(dp, node, bounds, delta):
    # A union state's value by its definition: every ascending split ``x`` of
    # the bounds that q and r share, each no larger than its bound or than
    # q's size.  q gets its exclusive head and ``x``, made ascending by a
    # suffix minimum, and r what is left of the shared bounds; the smallest
    # slot may also stay empty.  Child values come from ``dp`` itself.
    from blockerlab.monochromatic import INF

    def suffix_min(seq):
        return tuple(min(seq[i:]) for i in range(len(seq)))

    if dp.chi[node.index] - delta < 1:
        return INF, 0
    q, r = node.left, node.right
    if dp.chi[q.index] < dp.chi[r.index]:
        q, r = r, q
    gap = dp.chi[q.index] - dp.chi[r.index]
    off = min(len(bounds), max(gap - delta, 0))
    dr = max(delta - gap, 0)
    head, tail = bounds[:off], bounds[off:]
    splits = [()]
    for top in tail:
        top = min(top, dp.size[q.index])
        splits = [x + (v,) for x in splits for v in range(x[-1] if x else 0, top + 1)]
    best = INF
    for x in splits:
        vq = dp.value(q, suffix_min(head + x), delta)
        br = suffix_min([min(b - v, dp.size[r.index]) for b, v in zip(tail, x)])
        best = min(best, vq + dp.value(r, br, dr))
    if bounds:
        best = min(best, dp.value(node, bounds[1:], delta + 1))
    return best, off


def test_deficiency_union_states_match_every_split():
    # Union nodes read q's bounds from its Pareto frontier.  Every union
    # state the DP memoised must have the value that trying every split of
    # its bounds gives, over small catalogue cographs and random cographs
    # with few joins (so many unions, some with a wide chromatic gap).
    from blockerlab.cotree import CotreeInner
    from blockerlab.monochromatic import _DeficiencyDP

    rng = random.Random(2811)
    trees = [build_cotree(g) for g in graph_catalogue("cograph", 7)]
    trees += [random_cotree(rng, rng.randint(16, 24), 0.3) for _ in range(20)]
    compared = with_head = 0
    for t in trees:
        for d in range(1, min(3, t.chi - 1) + 1):
            dp = _DeficiencyDP(t)
            dp.value(t.root, (), d)
            for (index, bounds, delta), value in list(dp.memo.items()):
                node = t.postorder[index]
                if not isinstance(node, CotreeInner) or node.label != 0:
                    continue
                expected, off = _split_value(dp, node, bounds, delta)
                assert value == expected, (index, bounds, delta)
                compared += 1
                with_head += off > 0
    assert compared > 10000 and with_head > 1000


def test_deficiency_examples():
    t = build_cotree(complete_graph(4))
    count, col = min_mono_edges_deficiency(t, 1)
    assert count == 1
    assert count_monochromatic_edges(complete_graph(4), col) == 1
    assert min_mono_edges_deficiency(t, 0)[0] == 0
    with pytest.raises(ValueError):
        min_mono_edges_deficiency(t, 4)


def test_deficiency_supports_d3():
    t = build_cotree(complete_graph(5))
    count, col = min_mono_edges_deficiency(t, 3)
    assert count == 4  # classes {3,2}: 3 + 1 internal edges
    assert count_monochromatic_edges(complete_graph(5), col) == 4
    for g in itertools.islice(
        (g for g in graph_catalogue("cograph", 7) if chi_exact(g).value >= 4), 25
    ):
        t = build_cotree(g)
        assert (
            min_mono_edges_deficiency(t, 3)[0]
            == min_mono_edges_fixed_h(t, t.chi - 3)[0]
        )


def test_deficiency_matches_fixed_h_on_join_example():
    w4 = join(cycle_graph(4), Graph(1))
    t = build_cotree(w4)
    chi = chi_exact(w4).value
    assert min_mono_edges_deficiency(t, 1)[0] == min_mono_edges_fixed_h(t, chi - 1)[0]


def test_dps_agree_with_brute_small_catalogue():
    for g in graph_catalogue("cograph", 7):
        t = build_cotree(g)
        chi = t.chi
        for h in (1, 2, 3):
            count, col = min_mono_edges_fixed_h(t, h)
            assert count == brute_min_mono(g, h)[0]
            assert count_monochromatic_edges(g, col) == count
            assert max(col) <= max(h, 1)
        for d in (1, 2):
            if chi >= d + 1:
                count, col = min_mono_edges_deficiency(t, d)
                assert count == min_mono_edges_fixed_h(t, chi - d)[0]
                assert count_monochromatic_edges(g, col) == count
                assert len(set(col)) <= chi - d


def test_property_one_trivial_cases():
    g = Graph(2)
    t = build_cotree(g)
    assert has_property_one(t, (1, 1))
    assert not has_property_one(t, (1, 2))  # both children singleton classes


def test_property_one_tie_permissive():
    # Two disjoint edges: (1,2)/(2,1) and (1,2)/(1,2) both align under ties.
    g = Graph(4, [(0, 1), (2, 3)])
    t = build_cotree(g)
    assert has_property_one(t, (1, 2, 2, 1))
    assert has_property_one(t, (1, 2, 1, 2))


def _union_of_3k1_and_k2():
    # Hand-built cotree: 0-node(3K1 over {0,1,2}, K2 over {3,4}).
    from blockerlab.cotree import Cotree, CotreeInner, CotreeLeaf

    left = CotreeInner(0, CotreeInner(0, CotreeLeaf(0), CotreeLeaf(1)), CotreeLeaf(2))
    right = CotreeInner(1, CotreeLeaf(3), CotreeLeaf(4))
    t = Cotree(CotreeInner(0, left, right))
    return Graph(5, [(3, 4)]), t


def test_property_one_rank_conflict():
    g, t = _union_of_3k1_and_k2()
    # 3K1's largest class (colour 1, size 2) is absent from K2, while K2's
    # rank-1 class (colour 2, size 2) shares its colour only with 3K1's
    # smaller class: no size-respecting alignment exists.
    assert not has_property_one(t, (1, 1, 2, 2, 2))
    # All of 3K1 on the shared colour lets rank 1 match (tie inside K2).
    assert has_property_one(t, (2, 2, 2, 2, 1))


def test_property_one_matches_direct_definition():
    g, t = _union_of_3k1_and_k2()
    for col in itertools.product((1, 2), repeat=5):
        assert has_property_one(t, col) == _property_one_brute(t, col)
    flat = build_cotree(Graph(6, [(0, 1)]))
    for col in itertools.product((1, 2), repeat=6):
        assert has_property_one(flat, col) == _property_one_brute(flat, col)


def _property_one_brute(t, col):
    from blockerlab.cotree import CotreeInner

    def class_sizes(node):
        hist = {}
        stack = [node]
        while stack:
            x = stack.pop()
            if isinstance(x, CotreeInner):
                stack += [x.left, x.right]
            else:
                hist[col[x.vertex]] = hist.get(col[x.vertex], 0) + 1
        return hist

    for node in t.postorder:
        if not isinstance(node, CotreeInner) or node.label != 0:
            continue
        hq, hr = class_sizes(node.left), class_sizes(node.right)
        ok = False
        for perm_q in itertools.permutations(sorted(hq, key=lambda c: -hq[c])):
            if any(hq[perm_q[i]] < hq[perm_q[i + 1]] for i in range(len(perm_q) - 1)):
                continue
            for perm_r in itertools.permutations(sorted(hr, key=lambda c: -hr[c])):
                if any(hr[perm_r[i]] < hr[perm_r[i + 1]] for i in range(len(perm_r) - 1)):
                    continue
                if all(
                    perm_q[i] == perm_r[i]
                    for i in range(min(len(perm_q), len(perm_r)))
                ):
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def test_property_one_against_brute_on_random_cographs():
    rng = random.Random(23)
    graphs = [g for g in graph_catalogue("cograph", 6) if g.n >= 3]
    for g in rng.sample(graphs, 12):
        t = build_cotree(g)
        for _ in range(40):
            col = tuple(rng.randint(1, 3) for _ in range(g.n))
            assert has_property_one(t, col) == _property_one_brute(t, col)


def test_dps_invariant_under_chain_reassociation():
    # Unions/joins of three or more parts are binarised by chaining; any
    # chaining order denotes the same graph and must give the same minima.
    from blockerlab.cotree import Cotree, CotreeInner, CotreeLeaf, realize_cotree

    rng = random.Random(47)

    def chain(label, parts, order):
        parts = [parts[i] for i in order]
        node = parts[0]
        for nxt in parts[1:]:
            node = CotreeInner(label, node, nxt)
        return node

    for label in (0, 1):
        for _ in range(6):
            sizes = [rng.randint(1, 3) for _ in range(3)]
            offset = 0
            parts = []
            for s in sizes:
                leaves = [CotreeLeaf(offset + i) for i in range(s)]
                sub = leaves[0]
                for leaf in leaves[1:]:
                    sub = CotreeInner(1 - label, sub, leaf)
                parts.append(sub)
                offset += s
            import copy

            orders = list(itertools.permutations(range(3)))
            results = []
            for order in orders:
                t = Cotree(chain(label, copy.deepcopy(parts), order))
                g = realize_cotree(t)
                chi = chi_exact(g).value
                row = [min_mono_edges_fixed_h(t, h)[0] for h in (1, 2, 3)]
                if chi >= 2:
                    row.append(min_mono_edges_deficiency(t, 1)[0])
                results.append(tuple(row))
            assert len(set(results)) == 1


def _node_index(x):
    from blockerlab.cotree import CotreeInner, CotreeLeaf

    return x.index if isinstance(x, (CotreeInner, CotreeLeaf)) else x


def test_deficiency_memo_is_pinned(monkeypatch):
    # Every state the deficiency DP evaluates, in the order its value is
    # stored, with that value and its reconstruction choice (cotree nodes as
    # indices), over the cograph catalogue up to 8 vertices.  A rewrite of a
    # transition must keep all three, so the memo, the point where a budget
    # refuses it and the reconstructed colouring stay the same.
    from blockerlab import monochromatic

    made = []

    class Recorded(monochromatic._DeficiencyDP):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(monochromatic, "_DeficiencyDP", Recorded)
    digest = hashlib.sha256()
    states = 0
    for g in graph_catalogue("cograph", 8):
        t = build_cotree(g)
        for d in range(1, min(3, t.chi - 1) + 1):
            made.clear()
            min_mono_edges_deficiency(t, d)
            (dp,) = made
            rows = []
            for key, value in dp.memo.items():
                choice = dp.choice.get(key) or ()  # none for an infeasible state
                rows.append((key, value, tuple(_node_index(x) for x in choice)))
            states += len(rows)
            digest.update(repr(rows).encode())
    assert states == 64867
    assert digest.hexdigest()[:16] == "e3b3bd54ce1fcc5d"


def test_deficiency_reconstruction_is_rank_aligned():
    # The deficiency DP builds its colourings rank-aligned at union nodes,
    # so every reconstructed optimum must pass the alignment check.
    for g in itertools.islice(graph_catalogue("cograph", 8), 150):
        t = build_cotree(g)
        for d in (1, 2):
            if t.chi < d + 1:
                continue
            _, col = min_mono_edges_deficiency(t, d)
            assert has_property_one(t, col)


def test_property_one_restriction_is_lossless_small():
    for g in graph_catalogue("cograph", 6):
        t = build_cotree(g)
        chi = t.chi
        for d in (1, 2):
            if chi < d + 1:
                continue
            h = chi - d
            best_all = best_p1 = None
            for col in itertools.product(range(1, h + 1), repeat=g.n):
                cnt = count_monochromatic_edges(g, col)
                if best_all is None or cnt < best_all:
                    best_all = cnt
                if (best_p1 is None or cnt < best_p1) and has_property_one(t, col):
                    best_p1 = cnt
            assert best_all == best_p1


def test_deficiency_outputs_are_pinned():
    # Count and colouring of every deficiency query over the cograph
    # catalogue up to 8 vertices and 100 seeded random cographs of 16 to 30
    # vertices, for 1 <= d <= min(3, chi - 1).  Unlike the memo pin above,
    # this one holds for any change to how states are stored: only the
    # answers are hashed.
    digest = hashlib.sha256()
    queries = 0
    rng = random.Random(2407)
    trees = [build_cotree(g) for g in graph_catalogue("cograph", 8)]
    trees += [random_cotree(rng, rng.randint(16, 30), 0.5) for _ in range(100)]
    for t in trees:
        for d in range(1, min(3, t.chi - 1) + 1):
            digest.update(repr((d,) + min_mono_edges_deficiency(t, d)).encode())
            queries += 1
    assert queries == 1380
    assert digest.hexdigest()[:16] == "d6c2a4a9f7607635"


def test_fixed_h_outputs_are_pinned():
    # Count and colouring of every fixed-h query over the cograph catalogue
    # up to 8 vertices (1 <= h < chi), and over 40 seeded random cographs of
    # 16 to 24 vertices with chi 4 to 6 (h = chi - d for d <= 3).  Pruning
    # the tables must keep every answer, colouring included.
    digest = hashlib.sha256()
    queries = 0
    for g in graph_catalogue("cograph", 8):
        t = build_cotree(g)
        for h in range(1, t.chi):
            digest.update(repr((h,) + min_mono_edges_fixed_h(t, h)).encode())
            queries += 1
    assert queries == 1275
    rng = random.Random(2410)
    trees = []
    while len(trees) < 40:
        t = random_cotree(rng, rng.randint(16, 24), 0.4)
        if 4 <= t.chi <= 6:
            trees.append(t)
    for t in trees:
        for d in (1, 2, 3):
            h = t.chi - d
            digest.update(repr((h,) + min_mono_edges_fixed_h(t, h)).encode())
            queries += 1
    assert queries == 1395
    assert digest.hexdigest()[:16] == "ce51e384dbca6be6"
