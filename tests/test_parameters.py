import itertools
import random
import sys
from pathlib import Path

import pytest

from blockerlab import cotree, parameters
from blockerlab.catalogue import (
    graph_catalogue,
    random_chordal,
    random_connected_bipartite,
    random_graph,
)
from blockerlab.errors import CapacityExceededError, CertificateError
from blockerlab.graph import (
    Graph,
    bits,
    complete_graph,
    complete_multipartite_graph,
    contract_edges,
    cycle_graph,
    delete_edges,
    delete_vertices,
    path_graph,
    to_mask,
)
from blockerlab.graphio import format_graph
from blockerlab.parameters import (
    ParameterValue,
    alpha_bipartite,
    alpha_chordal,
    alpha_exact,
    bipartite_matching,
    certified_value,
    chi_exact,
    mu_bipartite,
    omega_exact,
    tau_from_alpha,
    validate_witness,
)
from blockerlab.recognizers import (
    Bipartition,
    EliminationOrder,
    recognize_bipartite,
    recognize_chordal,
)
from blockerlab.report import digest_bytes, verify_report
from helpers import labelled_graphs

# The benchmark's cotree generator, so the tests and the bench draw the same trees.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import random_cotree


def _brute_alpha(g):
    best = 0
    for r in range(g.n, -1, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return r
    return best


def test_alpha_examples(paw):
    assert alpha_exact(cycle_graph(4)).value == 2
    assert alpha_exact(paw).value == 2
    assert _brute_alpha(paw) == 2


def test_alpha_against_subset_enumeration(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        pv = alpha_exact(g)
        assert pv.value == _brute_alpha(g)
        assert validate_witness(g, pv)


def test_omega_chi_examples(paw):
    assert omega_exact(paw).value == 3
    assert chi_exact(complete_graph(4)).value == 4
    assert chi_exact(cycle_graph(5)).value == 3
    assert chi_exact(Graph(3)).value == 1


def _subset_tables(g):
    """Which vertex subsets (as masks) are independent sets and which are
    cliques, each subset checked against its lowest vertex."""
    independent = [True] * (1 << g.n)
    clique = [True] * (1 << g.n)
    for m in range(1, 1 << g.n):
        low = m & -m
        rest, nbrs = m ^ low, g.adj[low.bit_length() - 1]
        independent[m] = independent[rest] and not nbrs & rest
        clique[m] = clique[rest] and not rest & ~nbrs
    return independent, clique


def _brute_chi(g):
    """The fewest independent sets that partition the vertices: over every
    subset, the class of its lowest vertex runs through all independent
    subsets that hold it."""
    independent, _ = _subset_tables(g)
    parts = [0] * (1 << g.n)
    for m in range(1, 1 << g.n):
        low = m & -m
        rest = s = m ^ low
        best = g.n
        while True:
            if independent[s | low]:
                best = min(best, parts[rest ^ s] + 1)
            if not s:
                break
            s = (s - 1) & rest
        parts[m] = best
    return parts[-1]


def test_chi_against_brute(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        pv = chi_exact(g)
        assert pv.value == _brute_chi(g)
        assert validate_witness(g, pv)


def _operated(g):
    """g after every contraction or deletion of at most two elements."""
    for r in range(3):
        for s in itertools.combinations(g.edges(), r):
            yield contract_edges(g, s)[0]
            yield delete_edges(g, s)
        for u in itertools.combinations(range(g.n), r):
            yield delete_vertices(g, u)[0]


def test_exact_solvers_against_subset_enumeration():
    # Every labelled graph with n <= 5 (the graphs these operations make
    # from them are among those), 200 seeded graphs on 6 to 9 vertices and
    # every graph the operations make from those.
    rng = random.Random(14)
    seeded = [random_graph(rng, rng.randint(6, 9), rng.choice((0.3, 0.5, 0.7)))
              for _ in range(200)]
    graphs = {h for g in seeded for h in _operated(g)}
    graphs.update(h for n in range(6) for h in labelled_graphs(n))
    assert len(graphs) > 30000
    for g in graphs:
        independent, clique = _subset_tables(g)
        for solver, table in ((alpha_exact, independent), (omega_exact, clique)):
            pv = solver(g)
            assert pv.value == max(m.bit_count() for m, ok in enumerate(table) if ok), g.edges()
            assert validate_witness(g, pv)
        if g.n <= 6:
            pv = chi_exact(g)
            assert pv.value == _brute_chi(g) and validate_witness(g, pv), g.edges()


def test_matching_examples():
    for g, expect in [(cycle_graph(4), 2), (path_graph(4), 2), (complete_multipartite_graph((1, 3)), 1)]:
        cert = recognize_bipartite(g)
        pv = mu_bipartite(g, cert)
        assert pv.value == expect
        assert validate_witness(g, pv)


def test_alpha_bipartite_examples():
    assert alpha_bipartite(cycle_graph(4), recognize_bipartite(cycle_graph(4))).value == 2
    assert alpha_bipartite(path_graph(5), recognize_bipartite(path_graph(5))).value == 3


def test_alpha_bipartite_agrees_with_exact():
    rng = random.Random(5)
    for _ in range(500):
        g = random_connected_bipartite(rng, rng.randint(2, 12))
        cert = recognize_bipartite(g)
        pv = alpha_bipartite(g, cert)
        assert pv.value == alpha_exact(g).value
        assert validate_witness(g, pv)


def test_alpha_chordal_examples():
    assert alpha_chordal(complete_graph(4), recognize_chordal(complete_graph(4))).value == 1
    assert alpha_chordal(path_graph(4), recognize_chordal(path_graph(4))).value == 2


def test_alpha_chordal_agrees_with_exact():
    rng = random.Random(6)
    for _ in range(500):
        g = random_chordal(rng, rng.randint(1, 12))
        cert = recognize_chordal(g)
        pv = alpha_chordal(g, cert)
        assert pv.value == alpha_exact(g).value
        assert validate_witness(g, pv)


def test_tau_examples():
    for g, expect in [(cycle_graph(4), 2), (complete_graph(4), 3), (complete_multipartite_graph((1, 3)), 1)]:
        pv = tau_from_alpha(g, alpha_exact(g))
        assert pv.value == expect
        assert validate_witness(g, pv)


def test_koenig_on_random_bipartite():
    rng = random.Random(9)
    for _ in range(120):
        g = random_connected_bipartite(rng, rng.randint(2, 14))
        cert = recognize_bipartite(g)
        mu = mu_bipartite(g, cert).value
        tau = tau_from_alpha(g, alpha_bipartite(g, cert)).value
        assert mu == tau


def test_alpha_plus_tau_is_n():
    rng = random.Random(10)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 10))
        a = alpha_exact(g)
        t = tau_from_alpha(g, a)
        assert a.value + t.value == g.n
        # The cover really covers, and no smaller cover exists.
        assert validate_witness(g, t)


def test_capacity_ceilings():
    with pytest.raises(CapacityExceededError):
        alpha_exact(Graph(41))
    with pytest.raises(CapacityExceededError):
        omega_exact(Graph(41))
    with pytest.raises(CapacityExceededError):
        chi_exact(Graph(21))


def test_invalid_certificates_rejected():
    g = complete_graph(3)
    with pytest.raises(CertificateError):
        mu_bipartite(g, Bipartition(frozenset({0, 1}), frozenset({2})))
    with pytest.raises(CertificateError):
        tau_from_alpha(g, mu_bipartite(cycle_graph(4), recognize_bipartite(cycle_graph(4))))


def test_class_routes_agree_with_exact_solvers():
    # Each class route, asked for by name, on every connected member of its
    # class with n <= 7 (mu = n - alpha by König).
    routes = {"bipartite": ("alpha", "mu", "tau", "omega", "chi"), "chordal": ("alpha", "tau"),
              "cograph": ("omega", "chi")}
    for klass, kinds in routes.items():
        for g in graph_catalogue(klass, 7):
            alpha = alpha_exact(g).value
            exact = {"alpha": alpha, "tau": g.n - alpha, "mu": g.n - alpha,
                     "omega": omega_exact(g).value, "chi": chi_exact(g).value}
            for kind in kinds:
                pv, route = certified_value(g, kind, klass)
                assert route == klass and pv.kind == kind and pv.value == exact[kind]
                assert validate_witness(g, pv)


def test_class_routes_are_invariant_under_relabelling():
    # Past the exact solvers' ceilings (alpha and omega 40 vertices, chi 20)
    # only the class routes answer: a relabelled copy must take the same
    # route to the same value, and every witness must validate.
    cases = {
        "bipartite": (random_connected_bipartite(random.Random(5), 80, 0.15),
                      ("alpha", "mu", "tau", "omega", "chi")),
        "chordal": (random_chordal(random.Random(100), 100), ("alpha", "tau")),
        "cograph": (cotree.realize_cotree(random_cotree(random.Random(80), 80, 0.5)),
                    ("omega", "chi")),
    }
    rng = random.Random(14)
    for klass, (g, kinds) in cases.items():
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        for kind in kinds:
            pv, route = certified_value(g, kind)
            qv, again = certified_value(h, kind)
            assert route == again == klass and pv.kind == qv.kind == kind
            assert pv.value == qv.value
            assert validate_witness(g, pv) and validate_witness(h, qv)


def test_clique_cover_witness(paw):
    for cliques, value, ok in [
        (({0, 1, 2}, {2, 3}), 2, True),
        (({0, 1}, {2, 3}), 2, True),
        (({0, 1}, {3}), 2, False),  # 2 is not covered
        (({0, 1, 3}, {2}), 2, False),  # 0-3 is not an edge
        (({0, 1, 2}, {2, 3}), 3, False),  # two cliques, not three
        (({0, 1, 2}, {3, 4}), 2, False),  # 4 is not a vertex
    ]:
        pv = ParameterValue("theta", value, tuple(frozenset(c) for c in cliques))
        assert validate_witness(paw, pv) is ok


def _cover_one_vertex_short(matching):
    def short(adj, left, right):
        mate, cover = matching(adj, left, right)
        return mate, cover & (cover - 1)

    return short


def _one_colour_too_few(colouring):
    return lambda t: tuple(1 if c == t.chi else c for c in colouring(t))


# Each mutation breaks one witness of a class route's pair.  The route must
# raise CertificateError, and a correct report checked against it must not
# read as valid.
MUTATIONS = {
    "koenig-cover-one-short": (
        {"parameters.bipartite_matching": _cover_one_vertex_short(bipartite_matching)},
        path_graph(6), "mu", {"edges": [[0, 1], [2, 3], [4, 5]]}, 3,
    ),
    "cotree-colouring-one-colour-too-few": (
        {"cotree.proper_colouring": _one_colour_too_few(cotree.proper_colouring)},
        complete_graph(4), "chi", {"colouring": [1, 2, 3, 4]}, 4,
    ),
    # Sides that put the edge 0-1 inside one colour class.
    "bipartite-colouring-with-an-edge-inside-a-side": (
        {"recognizers.recognize_bipartite":
             lambda g: Bipartition(frozenset({0, 1}), frozenset({2, 3}))},
        path_graph(4), "chi", {"colouring": [1, 2, 1, 2]}, 2,
    ),
    # An order that skips 0 and 1 leaves them outside every clique.
    "clique-cover-missing-a-vertex": (
        {"recognizers.recognize_chordal": lambda g: EliminationOrder((3, 2)),
         "recognizers.validate_elimination_order": lambda g, cert: None},
        Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), "alpha", {"vertices": [0, 3]}, 2,
    ),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_route_rejects_a_mutated_certificate(monkeypatch, name):
    patches, g, kind, witness, value = MUTATIONS[name]
    data = format_graph(g).encode()
    report = {"subcommand": "param", "input_digest": digest_bytes(data), "kind": kind,
              "value": value, "witness": witness}
    ok, detail = verify_report(report, g, data)
    assert ok, detail
    for target, fake in patches.items():
        monkeypatch.setattr(f"blockerlab.{target}", fake)
    with pytest.raises(CertificateError) as raised:
        certified_value(g, kind)
    ok, detail = verify_report(report, g, data)
    assert not ok and detail == str(raised.value)


def test_mu_witness_is_a_matching():
    g = complete_multipartite_graph((3, 3))
    pv = mu_bipartite(g, recognize_bipartite(g))
    assert pv.value == 3
    seen = set()
    for u, v in pv.witness:
        assert g.has_edge(u, v)
        assert u not in seen and v not in seen
        seen.update((u, v))


def _ladder(m):
    # P_m x K_2: rungs (i, m + i) and two rails.
    rails = [(i, i + 1) for i in range(m - 1)] + [(m + i, m + i + 1) for i in range(m - 1)]
    return Graph(2 * m, rails + [(i, m + i) for i in range(m)])


def _crown(m):
    # K_{m,m} less a perfect matching.
    return Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m) if i != j])


def _path_with_long_augmenting_path(m):
    """A path on 2m vertices labelled so that the first phase matches every
    left vertex but the path's first one, which then needs an augmenting
    path through all 2m vertices.

    Path position 2i (i >= 1) is vertex i - 1, position 0 is vertex m - 1 and
    position 2i + 1 is vertex m + i, so every left vertex prefers the right
    vertex before it on the path, and vertex m - 1 comes last.
    """
    label = [m - 1] + [None] * (2 * m - 1)
    for i in range(1, m):
        label[2 * i] = i - 1
    for i in range(m):
        label[2 * i + 1] = m + i
    return Graph(2 * m, [(label[p], label[p + 1]) for p in range(2 * m - 1)])


def _matching_property_graphs():
    yield from graph_catalogue("bipartite", 8)
    for m in (2, 3, 7, 30):
        yield _ladder(m)
        yield _crown(m)
    for n in (2, 3, 39, 40, 2000, 2001):
        yield path_graph(n)
    yield _path_with_long_augmenting_path(20)
    yield _path_with_long_augmenting_path(2000)


def test_matching_and_koenig_cover_have_one_size():
    for g in _matching_property_graphs():
        cert = recognize_bipartite(g)
        mate, cover = bipartite_matching(g.adj, to_mask(cert.left), to_mask(cert.right))
        for v, w in mate.items():
            assert mate[w] == v and (v in cert.left) != (w in cert.left)
        edges = frozenset((u, v) for u, v in mate.items() if u < v)
        matching = ParameterValue("mu", len(edges), edges)
        assert validate_witness(g, matching)
        assert validate_witness(g, ParameterValue("tau", matching.value, frozenset(bits(cover))))
        assert mu_bipartite(g, cert).value == matching.value
        alpha = alpha_bipartite(g, cert)
        assert validate_witness(g, alpha) and alpha.value == g.n - matching.value
        if g.n <= 40:
            assert alpha.value == alpha_exact(g).value


def _pairwise_verdict(g, kind, value, wit):
    """The definitions of validate_witness's set kinds, pair by pair."""
    ends = [v for e in wit for v in e] if kind == "mu" else wit
    if len(wit) != value or not all(0 <= v < g.n for v in ends):
        return False
    pairs = list(itertools.combinations(sorted(wit), 2))
    if kind == "alpha":
        return not any(g.has_edge(u, v) for u, v in pairs)
    if kind == "omega":
        return all(g.has_edge(u, v) for u, v in pairs)
    if kind == "mu":
        return all(g.has_edge(u, v) for u, v in wit) and not any(set(a) & set(b) for a, b in pairs)
    return all(u in wit or v in wit for u, v in g.edges())


def _greedy_matching(g):
    used, edges = set(), set()
    for u, v in g.edges():
        if u not in used and v not in used:
            edges.add((u, v))
            used.update((u, v))
    return frozenset(edges)


def test_witness_checks_match_pairwise_definition():
    rng = random.Random(12)
    checked = {True: 0, False: 0}
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
        alpha = alpha_exact(g)
        cases = {  # kind -> (a witness, the elements it is drawn from, one out of range)
            "alpha": (alpha.witness, range(g.n), g.n),
            "omega": (omega_exact(g).witness, range(g.n), g.n),
            "tau": (tau_from_alpha(g, alpha).witness, range(g.n), g.n),
            "mu": (_greedy_matching(g), g.edges(), (0, g.n)),
        }
        for kind, (wit, universe, stray) in cases.items():
            outside = sorted(set(universe) - wit)
            # The witness, then witnesses one element wrong: one extra, one
            # missing, one swapped, one out of range.
            variants = [wit]
            if outside:
                variants.append(wit | {rng.choice(outside)})
            if wit:
                dropped = rng.choice(sorted(wit))
                variants.append(wit - {dropped})
                if outside:
                    variants.append(wit - {dropped} | {rng.choice(outside)})
                variants.append(wit - {dropped} | {stray})
            for w in variants:
                for value in (len(w), len(w) + 1):
                    expected = _pairwise_verdict(g, kind, value, w)
                    assert validate_witness(g, ParameterValue(kind, value, w)) == expected
                    checked[expected] += 1
    assert min(checked.values()) > 500


def _greedy_colour_count(g):
    """Colours used by first-fit in order of decreasing degree, the upper
    bound ``chi_exact`` starts from."""
    colour = [0] * g.n
    for v in sorted(range(g.n), key=lambda v: -g.degree(v)):
        taken = {colour[w] for w in g.neighbours(v)}
        colour[v] = min(c for c in range(1, g.n + 1) if c not in taken)
    return max(colour, default=0)


def _groetzsch():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + 1) % 5) for i in range(5)] + [(5 + i, (i - 1) % 5) for i in range(5)]
    return Graph(11, edges + [(5 + i, 10) for i in range(5)])


# Exact witnesses on random_graph(Random(seed), n, p) and on two named
# graphs: alpha and omega as sorted vertex tuples, chi as the colouring (None
# above chi's ceiling).  Faster solvers must keep every witness.
PINNED_EXACT = [
    ((1, 12, 0.3), (2, 4, 5, 7, 10, 11), (2, 8, 9), (2, 1, 2, 2, 3, 1, 1, 2, 3, 1, 3, 2)),
    ((2, 14, 0.5), (1, 3, 4, 5, 6), (1, 10, 11, 13), (2, 2, 3, 4, 3, 2, 2, 1, 1, 4, 3, 4, 3, 1)),
    ((3, 16, 0.6), (0, 4, 5, 8), (0, 1, 10, 12, 14), (4, 5, 2, 1, 5, 2, 3, 2, 3, 5, 3, 1, 1, 3, 2, 4)),
    ((4, 18, 0.4), (1, 2, 3, 7, 8, 12), (0, 1, 4, 10, 14),
     (3, 5, 1, 4, 1, 2, 1, 1, 5, 3, 4, 3, 4, 2, 2, 2, 3, 5)),
    ((5, 20, 0.5), (5, 7, 8, 10, 11), (1, 8, 12, 15, 19),
     (3, 3, 3, 5, 4, 3, 2, 4, 4, 2, 5, 4, 2, 1, 1, 5, 1, 2, 1, 1)),
    ((6, 20, 0.7), (2, 4, 9, 16), (1, 2, 6, 10, 11, 14, 19),
     (1, 5, 7, 5, 7, 3, 2, 6, 6, 2, 1, 3, 2, 4, 4, 5, 7, 4, 6, 6)),
    ((7, 30, 0.3), (2, 6, 7, 11, 13, 20, 22, 23), (4, 17, 21, 22, 25), None),
    ((8, 35, 0.5), (1, 7, 9, 15, 20, 24, 27), (0, 1, 3, 6, 12, 16, 23), None),
    ("groetzsch", (5, 6, 7, 8, 9), (5, 10), (1, 2, 1, 2, 3, 4, 2, 3, 2, 3, 1)),
    ("C7", (0, 2, 4), (0, 1), (1, 2, 1, 2, 1, 2, 3)),
]


def test_exact_witnesses_pinned():
    greedy_above_omega = greedy_at_omega = 0
    for key, alpha_wit, omega_wit, colouring in PINNED_EXACT:
        if key == "groetzsch":
            g = _groetzsch()
        elif key == "C7":
            g = cycle_graph(7)
        else:
            seed, n, p = key
            g = random_graph(random.Random(seed), n, p)
        assert tuple(sorted(alpha_exact(g).witness)) == alpha_wit, key
        omega = omega_exact(g)
        assert tuple(sorted(omega.witness)) == omega_wit, key
        if colouring is None:
            continue
        chi = chi_exact(g)
        assert chi.witness == colouring and chi.value == max(colouring), key
        if _greedy_colour_count(g) > omega.value:
            greedy_above_omega += 1
        else:
            greedy_at_omega += 1
    # Both exits of chi_exact are pinned: greedy already optimal at the
    # clique bound, and a search that has to improve on greedy.
    assert greedy_above_omega and greedy_at_omega


def _pinned_graph(key):
    if key == "groetzsch":
        return _groetzsch()
    if key == "C7":
        return cycle_graph(7)
    seed, n, p = key
    return random_graph(random.Random(seed), n, p)


def _greedy_seed(adj, n):
    """Repeatedly a vertex of fewest neighbours among the candidates left,
    the lowest on ties, as the search's first independent set."""
    cand, seed = set(range(n)), set()
    while cand:
        v = min(cand, key=lambda x: (sum(adj[x] >> w & 1 for w in cand), x))
        seed.add(v)
        cand -= {w for w in cand if w == v or adj[v] >> w & 1}
    return seed


def _greedy_clique_cover(adj, n):
    """The lowest vertex left, then every later vertex left that is adjacent
    to all chosen so far, until no vertex is left."""
    left, cover = list(range(n)), []
    while left:
        clique = []
        for v in left:
            if all(adj[v] >> u & 1 for u in clique):
                clique.append(v)
        cover.append(clique)
        left = [v for v in left if v not in clique]
    return cover


def test_independent_set_search_exits_pinned():
    # alpha on the graph and omega on its complement: the seed comes back at
    # once when the greedy clique cover has as many parts, and is searched
    # past otherwise.
    graphs = [_pinned_graph(key) for key, *_ in PINNED_EXACT]
    graphs += [random_graph(random.Random(seed), 8, p) for seed in range(30) for p in (0.3, 0.5, 0.7)]
    closed = searched = improved = 0
    for g in graphs:
        for adj in (g.adj, g.complement().adj):
            mask = parameters._max_independent_mask(adj, (1 << g.n) - 1)
            seed, cover = _greedy_seed(adj, g.n), _greedy_clique_cover(adj, g.n)
            assert not any(adj[v] & mask for v in bits(mask))
            assert sorted(v for clique in cover for v in clique) == list(range(g.n))
            assert all(adj[u] >> v & 1 for clique in cover for u, v in itertools.combinations(clique, 2))
            assert len(cover) >= mask.bit_count() >= len(seed)
            if len(cover) == len(seed):
                closed += 1
                assert mask == to_mask(seed)
            else:
                searched += 1
                improved += mask.bit_count() > len(seed)
    assert closed and searched and improved, (closed, searched, improved)
