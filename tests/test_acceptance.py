"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything here is anchored on exhaustive enumeration or on independent
routes through the code base (polynomial solver vs subset-enumeration
oracle, two separately implemented colouring DPs, gadget transfers vs brute
instance solvers).  Tolerances are exact throughout.
"""

import itertools
import random
from fractions import Fraction

import pytest

from blockerlab.bipartite_blocker import solve_bipartite_contraction_blocker
from blockerlab.catalogue import graph_catalogue, random_connected_bipartite, random_graph
from blockerlab.cotree import build_cotree
from blockerlab.graph import Graph, contract_edges, delete_vertices
from blockerlab.graphio import format_graph
from blockerlab.monochromatic import (
    count_monochromatic_edges,
    min_mono_edges_deficiency,
    min_mono_edges_fixed_h,
    monochromatic_edge_set,
)
from blockerlab.oracle import (
    BlockerQuery,
    brute_blocker,
    brute_blocker_decision,
    brute_min_mono,
    brute_mss,
    min_critical_size,
)
from blockerlab.parameters import (
    alpha_bipartite,
    alpha_chordal,
    alpha_exact,
    chi_exact,
    mu_bipartite,
    omega_exact,
    tau_from_alpha,
)
from blockerlab.recognizers import (
    Bipartition,
    EliminationOrder,
    MultipartiteParts,
    recognize_bipartite,
    recognize_chordal,
    recognize_complete_multipartite,
)
from blockerlab.reductions import (
    MssInstance,
    SatInstance,
    build_chordal_gadget,
    build_mss_gadget,
    build_vc_gadget,
)
from blockerlab.report import digest_bytes, edges_payload, verify_report, vertices_payload
from helpers import forest, has_property_one


def _announce(number, name):
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:>2} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:>2} {name}: PASS")
            return result

        inner.__name__ = fn.__name__
        return inner

    return wrap


@_announce(1, "bipartite contraction blocker agrees with the oracle (n<=8, all k, d in 1..2)")
def test_criterion_01_bipartite_blocker_agreement():
    _check_blocker_agrees_with_oracle(graph_catalogue("bipartite", 8))


@pytest.mark.slow
def test_criterion_01_one_size_further():
    _check_blocker_agrees_with_oracle(g for g in graph_catalogue("bipartite", 9) if g.n == 9)


def _check_blocker_agrees_with_oracle(graphs):
    for g in graphs:
        if g.n < 2:
            continue
        m = g.edge_count()
        for d in (1, 2):
            mstar = min_critical_size(g, "contract", "alpha", d)
            for k in range(0, m + 1):
                out = solve_bipartite_contraction_blocker(g, k, d)
                assert out.answer == (mstar is not None and mstar <= k)
                if out.answer:
                    w = out.witness
                    assert len(w.edges) <= k
                    after = alpha_exact(contract_edges(g, w.edges)[0]).value
                    assert after == w.claimed_alpha_after
                    assert after <= out.alpha_before - d


@_announce(2, "tree construction drops alpha as guaranteed (200 random graphs per d)")
def test_criterion_02_tree_guarantee():
    from blockerlab.bipartite_blocker import build_contraction_tree

    rng = random.Random(2024)
    for d in (1, 2):
        done = 0
        while done < 200:
            n = rng.randint(2 * d + 2, 12)
            g = random_connected_bipartite(rng, n)
            alpha = alpha_exact(g).value
            if alpha < d + 1:
                continue
            cert = recognize_bipartite(g)
            matching = mu_bipartite(g, cert).witness
            tree = build_contraction_tree(g, matching, d)
            assert len(tree) in (2 * d, 2 * d + 1)
            assert forest(g, tree)
            assert alpha_exact(contract_edges(g, tree)[0]).value <= alpha - d
            touched = {v for e in tree for v in e}
            rest, _ = delete_vertices(g, touched)
            assert alpha_exact(rest).value <= alpha - d - 1
            done += 1


@_announce(3, "matching-cover and independence-cover identities (500 + 500 random graphs)")
def test_criterion_03_koenig_and_complement():
    rng = random.Random(3)
    for _ in range(500):
        g = random_connected_bipartite(rng, rng.randint(2, 14))
        cert = recognize_bipartite(g)
        assert isinstance(cert, Bipartition)
        mu = mu_bipartite(g, cert).value
        tau = tau_from_alpha(g, alpha_bipartite(g, cert)).value
        assert mu == tau
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_graph(rng, n)
        alpha = alpha_exact(g).value
        edges = g.edges()
        brute_tau = min(
            bin(mask).count("1")
            for mask in range(1 << n)
            if all(mask >> u & 1 or mask >> v & 1 for u, v in edges)
        )
        assert alpha + brute_tau == n
        tau = tau_from_alpha(g, alpha_exact(g))
        assert tau.value == brute_tau


@_announce(4, "both colouring DPs match brute force on every cograph up to 9 vertices")
def test_criterion_04_dp_cross_validation():
    for g in graph_catalogue("cograph", 9):
        t = build_cotree(g)
        chi = t.chi
        for h in (1, 2, 3):
            count, col = min_mono_edges_fixed_h(t, h)
            assert count == brute_min_mono(g, h)[0]
            assert count_monochromatic_edges(g, col) == count
        for d in (1, 2):
            if chi >= d + 1:
                count, col = min_mono_edges_deficiency(t, d)
                assert count == min_mono_edges_fixed_h(t, chi - d)[0]
                assert count_monochromatic_edges(g, col) == count
                assert len(set(col)) <= chi - d


def _partitions_up_to(n, max_blocks):
    # Restricted growth strings with at most max_blocks blocks: every
    # colouring up to colour renaming.
    assign = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(assign)
            return
        for b in range(min(used + 1, max_blocks)):
            assign[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


@_announce(5, "rank-aligned colourings lose nothing (cographs n<=8, d in 1..2)")
def test_criterion_05_property_one_lossless():
    for g in graph_catalogue("cograph", 8):
        t = build_cotree(g)
        chi = t.chi
        edges = g.edges()
        for d in (1, 2):
            if chi < d + 1:
                continue
            best_all = None
            best_aligned = None
            for part in _partitions_up_to(g.n, chi - d):
                cnt = sum(1 for u, v in edges if part[u] == part[v])
                if best_all is None or cnt < best_all:
                    best_all = cnt
                if best_aligned is None or cnt < best_aligned:
                    if has_property_one(t, part):
                        best_aligned = cnt
            assert best_all == best_aligned


@_announce(6, "colouring budgets equal edge-deletion blocking (cographs n<=8)")
def test_criterion_06_mono_equals_edge_deletion_blocker():
    for g in graph_catalogue("cograph", 8):
        chi = chi_exact(g).value
        if chi < 2:
            continue
        for h in sorted({1, chi - 1}):
            d = chi - h
            mstar = brute_min_mono(g, h)[0]
            yes = brute_blocker_decision(BlockerQuery(g, "delete-edges", "chi", mstar, d))
            assert yes.answer
            if mstar > 0:
                no = brute_blocker_decision(
                    BlockerQuery(g, "delete-edges", "chi", mstar - 1, d)
                )
                assert not no.answer


def _min_positives(sat: SatInstance):
    best = None
    for bits_ in range(1 << sat.variable_count):
        positives = {x for x in range(sat.variable_count) if bits_ >> x & 1}
        if sat.satisfied_by(positives):
            if best is None or len(positives) < best:
                best = len(positives)
    return best


def _all_sat_instances(max_vars=3, max_clauses=3, max_k=2):
    for nvars in range(2, max_vars + 1):
        pairs = list(itertools.combinations(range(nvars), 2))
        for count in range(1, min(max_clauses, len(pairs)) + 1):
            for clauses in itertools.combinations(pairs, count):
                for k in range(0, max_k + 1):
                    yield SatInstance.make(nvars, clauses, k)


@_announce(7, "all three gadget equivalences hold on exhaustive small instances")
def test_criterion_07_reduction_equivalences():
    # (a) cover <=> clique-number contraction blocking on triangle-free inputs
    _check_cover_equals_contraction_blocking(graph_catalogue("c3-free", 6))
    # (b) budgeted satisfiability <=> contraction <=> deletion on the gadget
    for sat in _all_sat_instances():
        g, _ = build_chordal_gadget(sat)
        sat_yes = _min_positives(sat) <= sat.k  # always satisfiable: all-true works
        contract_yes = brute_blocker(
            BlockerQuery(g, "contract", "alpha", sat.k, 1)
        ).answer
        delete_yes = brute_blocker(
            BlockerQuery(g, "delete-vertices", "alpha", sat.k, 1)
        ).answer
        assert sat_yes == contract_yes == delete_yes
    # (c) sum-of-squares <=> monochromatic budget on the multipartite gadget
    for total in range(2, 9):
        for parts in _ascending_compositions(total):
            for h in (1, 2, 3):
                best, _ = brute_mss(len(parts), parts, h)
                for J in (best - 1, best, best + 1):
                    mss = MssInstance(len(parts), parts, h, J)
                    gadget, _, target = build_mss_gadget(mss)
                    mono = brute_min_mono(gadget, h)[0]
                    expect = best <= J
                    assert (mono <= target.budget) == expect
                    assert (Fraction(mono) <= target.exact) == expect


def _check_cover_equals_contraction_blocking(bases):
    for base in bases:
        if base.edge_count() == 0:
            continue
        gadget, _ = build_vc_gadget(base, base.n)
        tau = min(
            bin(mask).count("1")
            for mask in range(1 << base.n)
            if all(mask >> u & 1 or mask >> v & 1 for u, v in base.edges())
        )
        mstar = min_critical_size(gadget, "contract", "omega", 1)
        assert mstar == tau


def _ascending_compositions(total, minimum=1):
    if total == 0:
        yield ()
        return
    for first in range(minimum, total + 1):
        for rest in _ascending_compositions(total - first, first):
            yield (first,) + rest


@_announce(8, "gadget structure: forbidden subgraphs, parameters, vertex counts")
def test_criterion_08_gadget_postconditions():
    _check_vc_gadget_structure(graph_catalogue("c3-free", 5))
    for sat in itertools.islice(_all_sat_instances(), 30):
        gadget, _ = build_chordal_gadget(sat)
        cert = recognize_chordal(gadget)
        assert isinstance(cert, EliminationOrder)
        assert alpha_chordal(gadget, cert).value == sat.variable_count + 1
    for a in ((1, 1), (1, 2, 3), (2, 2, 2)):
        gadget, gm, _ = build_mss_gadget(MssInstance(len(a), a, 2, 10))
        cert = recognize_complete_multipartite(gadget)
        assert isinstance(cert, MultipartiteParts)
        assert sorted(len(p) for p in cert.parts) == sorted(a)
    # The worked example: four variables, clauses on pairs 01, 12, 13.
    for k in (1, 2, 3):
        sat = SatInstance.make(4, [(0, 1), (1, 2), (1, 3)], k)
        gadget, _ = build_chordal_gadget(sat)
        assert gadget.n == 4 * (2 * k + 2) + 3
        cert = recognize_chordal(gadget)
        assert alpha_chordal(gadget, cert).value == 5
        assert alpha_exact(gadget).value == 5


@pytest.mark.slow
def test_criteria_07_and_08_vc_gadget_one_size_further():
    _check_cover_equals_contraction_blocking(g for g in graph_catalogue("c3-free", 7) if g.n == 7)
    _check_vc_gadget_structure(g for g in graph_catalogue("c3-free", 6) if g.n == 6)


def _check_vc_gadget_structure(bases):
    from blockerlab.graph import complete_graph, contains_induced, disjoint_union

    c3p1 = disjoint_union(complete_graph(3), Graph(1))
    for base in bases:
        if base.edge_count() == 0:
            continue
        gadget, gm = build_vc_gadget(base, 2)
        assert contains_induced(gadget, c3p1) is None
        assert omega_exact(gadget).value == 3


@_announce(9, "inclusion-minimal alpha-critical contraction sets induce forests (300 graphs)")
def test_criterion_09_minimal_critical_forest():
    rng = random.Random(9)
    done = 0
    while done < 300:
        n = rng.randint(3, 7)
        g = random_graph(rng, n, 0.45)
        alpha = alpha_exact(g).value
        if alpha <= 1:
            continue  # contraction never reaches alpha - 1 = 0
        edges = g.edges()
        prev_critical: set[frozenset] = set()
        for size in range(1, len(edges) + 1):
            current: set[frozenset] = set()
            all_critical = True
            for s in itertools.combinations(edges, size):
                fs = frozenset(s)
                critical = (
                    alpha_exact(contract_edges(g, s)[0]).value < alpha
                )
                if critical:
                    current.add(fs)
                    # Criticality is preserved under supersets, so checking
                    # the one-edge-smaller subsets decides minimality.
                    if all(fs - {e} not in prev_critical for e in fs):
                        assert forest(g, s)
                else:
                    all_critical = False
            prev_critical = current
            if all_critical:
                break  # supersets contain a critical subset: never minimal
        done += 1


@_announce(10, "every yes answer re-validates through the verify pipeline")
def test_criterion_10_witness_integrity():
    checked = 0

    def check(report, g):
        nonlocal checked
        ok, detail = verify_report(report, g, format_graph(g).encode())
        assert ok, detail
        checked += 1

    rng = random.Random(10)
    # Blocker yes answers across the small bipartite catalogue.
    for g in graph_catalogue("bipartite", 6):
        if g.n < 2:
            continue
        digest = digest_bytes(format_graph(g).encode())
        for d in (1, 2):
            for k in (1, 2, 2 * d + 1):
                out = solve_bipartite_contraction_blocker(g, k, d)
                if not out.answer:
                    continue
                check(
                    {
                        "subcommand": "blocker",
                        "input_digest": digest,
                        "operation": "contract",
                        "parameter": "alpha",
                        "k": k,
                        "d": d,
                        "answer": "yes",
                        "witness": {"edges": edges_payload(out.witness.edges)},
                        "value_before": out.alpha_before,
                        "value_after": out.witness.claimed_alpha_after,
                    },
                    g,
                )
    # Oracle yes answers across operations and parameters.
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7))
        digest = digest_bytes(format_graph(g).encode())
        for op, param in [
            ("contract", "alpha"),
            ("delete-vertices", "alpha"),
            ("delete-vertices", "omega"),
            ("delete-edges", "chi"),
            ("contract", "omega"),
        ]:
            if chi_exact(g).value < 2 and param == "chi":
                continue
            answer = brute_blocker(BlockerQuery(g, op, param, 3, 1))
            if not answer.answer:
                continue
            witness = (
                {"vertices": vertices_payload(answer.witness)}
                if op == "delete-vertices"
                else {"edges": edges_payload(answer.witness)}
            )
            check(
                {
                    "subcommand": "oracle",
                    "input_digest": digest,
                    "operation": op,
                    "parameter": param,
                    "k": 3,
                    "d": 1,
                    "answer": "yes",
                    "witness": witness,
                    "value_before": answer.value_before,
                    "value_after": answer.value_after,
                },
                g,
            )
    # Colouring reports, both modes.
    for g in itertools.islice(graph_catalogue("cograph", 6), 40):
        t = build_cotree(g)
        digest = digest_bytes(format_graph(g).encode())
        chi = t.chi
        count, col = min_mono_edges_fixed_h(t, 2)
        check(
            {
                "subcommand": "mono",
                "input_digest": digest,
                "mode": "fixed-h",
                "h": 2,
                "min_mono_edges": count,
                "colouring": list(col),
                "deleted_edges": edges_payload(monochromatic_edge_set(g, col)),
            },
            g,
        )
        if chi >= 2:
            count, col = min_mono_edges_deficiency(t, 1)
            check(
                {
                    "subcommand": "mono",
                    "input_digest": digest,
                    "mode": "deficiency",
                    "d": 1,
                    "chi": chi,
                    "min_mono_edges": count,
                    "colouring": list(col),
                    "deleted_edges": edges_payload(monochromatic_edge_set(g, col)),
                },
                g,
            )
    # Parameter reports for every kind.
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        digest = digest_bytes(format_graph(g).encode())
        for kind in ("alpha", "omega", "chi", "tau"):
            pv = {
                "alpha": alpha_exact,
                "omega": omega_exact,
                "chi": chi_exact,
                "tau": lambda x: tau_from_alpha(x, alpha_exact(x)),
            }[kind](g)
            witness = (
                {"colouring": list(pv.witness)}
                if kind == "chi"
                else {"vertices": vertices_payload(pv.witness)}
            )
            check(
                {
                    "subcommand": "param",
                    "input_digest": digest,
                    "kind": kind,
                    "value": pv.value,
                    "witness": witness,
                },
                g,
            )
    assert checked > 300
