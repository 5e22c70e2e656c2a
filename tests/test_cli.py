import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from blockerlab import cli, cotree
from blockerlab.catalogue import random_chordal, random_connected_bipartite
from blockerlab.cli import main
from blockerlab.cotree import parse_cotree_sexpr, realize_cotree
from blockerlab.graph import (
    Graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    delete_edges,
    path_graph,
)
from blockerlab.graphio import format_graph, parse_graph
from blockerlab.report import digest_bytes
from helpers import join


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.graph"
    path.write_text(format_graph(path_graph(4)))
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(format_graph(complete_graph(4)))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_param_alpha(capsys, p4_file):
    code, out = _run(capsys, "param", "--kind", "alpha", p4_file)
    report = json.loads(out)
    assert code == 0
    assert report["value"] == 2
    assert report["graph_class"] == "bipartite"


def test_param_all_kinds(capsys, k4_file):
    for kind, value in [("alpha", 1), ("omega", 4), ("chi", 4), ("tau", 3)]:
        code, out = _run(capsys, "param", "--kind", kind, k4_file)
        assert code == 0 and json.loads(out)["value"] == value


PARAM_GRAPHS = {
    "p4": path_graph(4),  # bipartite, chordal, not a cograph
    "c4": cycle_graph(4),  # bipartite, cograph, not chordal
    "k4": complete_graph(4),  # chordal, cograph, not bipartite
    "c5": cycle_graph(5),  # none of the three
}
PARAM_CLASSES = ("auto", "bipartite", "chordal", "cograph")
# (graph, kind) -> one outcome per --class in PARAM_CLASSES order: the
# reported "graph_class:value", or "exit 2" when the class is refused.
PARAM_TABLE = {
    ("p4", "alpha"): ("bipartite:2", "bipartite:2", "chordal:2", "exit 2"),
    ("p4", "omega"): ("bipartite:2", "bipartite:2", "general:2", "exit 2"),
    ("p4", "chi"): ("bipartite:2", "bipartite:2", "general:2", "exit 2"),
    ("p4", "mu"): ("bipartite:2", "bipartite:2", "bipartite:2", "exit 2"),
    ("p4", "tau"): ("bipartite:2", "bipartite:2", "chordal:2", "exit 2"),
    ("c4", "alpha"): ("bipartite:2", "bipartite:2", "exit 2", "general:2"),
    ("c4", "omega"): ("bipartite:2", "bipartite:2", "exit 2", "cograph:2"),
    ("c4", "chi"): ("bipartite:2", "bipartite:2", "exit 2", "cograph:2"),
    ("c4", "mu"): ("bipartite:2", "bipartite:2", "exit 2", "bipartite:2"),
    ("c4", "tau"): ("bipartite:2", "bipartite:2", "exit 2", "general:2"),
    ("k4", "alpha"): ("chordal:1", "exit 2", "chordal:1", "general:1"),
    ("k4", "omega"): ("cograph:4", "exit 2", "general:4", "cograph:4"),
    ("k4", "chi"): ("cograph:4", "exit 2", "general:4", "cograph:4"),
    ("k4", "mu"): ("exit 2", "exit 2", "exit 2", "exit 2"),
    ("k4", "tau"): ("chordal:3", "exit 2", "chordal:3", "general:3"),
    ("c5", "alpha"): ("general:2", "exit 2", "exit 2", "exit 2"),
    ("c5", "omega"): ("general:2", "exit 2", "exit 2", "exit 2"),
    ("c5", "chi"): ("general:3", "exit 2", "exit 2", "exit 2"),
    ("c5", "mu"): ("exit 2", "exit 2", "exit 2", "exit 2"),
    ("c5", "tau"): ("general:3", "exit 2", "exit 2", "exit 2"),
}


@pytest.mark.parametrize("klass", PARAM_CLASSES)
@pytest.mark.parametrize("graph_name, kind", sorted(PARAM_TABLE))
def test_param_routes_by_kind_and_class(capsys, tmp_path, graph_name, kind, klass):
    graph_file = tmp_path / f"{graph_name}.graph"
    graph_file.write_text(format_graph(PARAM_GRAPHS[graph_name]))
    expected = PARAM_TABLE[graph_name, kind][PARAM_CLASSES.index(klass)]
    code, out = _run(capsys, "param", "--kind", kind, "--class", klass, str(graph_file))
    if expected == "exit 2":
        assert code == 2
        return
    report = json.loads(out)
    assert code == 0
    assert f"{report['graph_class']}:{report['value']}" == expected
    report_file = tmp_path / "report.json"
    report_file.write_text(out)
    code, out = _run(capsys, "verify", str(report_file), str(graph_file))
    assert code == 0 and json.loads(out)["valid"]


def test_param_class_mismatch(capsys, k4_file):
    code = main(["param", "--kind", "mu", k4_file])
    assert code == 2


def test_cotree_prints_sexpr(capsys, k4_file):
    code, out = _run(capsys, "cotree", k4_file)
    assert code == 0
    assert out.strip() == "(1 (1 (1 0 1) 2) 3)"


def test_cotree_rejects_non_cograph(capsys, p4_file):
    assert main(["cotree", p4_file]) == 2


def test_cotree_on_the_1200_vertex_chain(capsys, tmp_path):
    # Vertex i joins all earlier vertices when i is odd: a cotree of depth 1199.
    chain = Graph(1200, [(i, j) for i in range(1, 1200, 2) for j in range(i)])
    path = tmp_path / "chain.graph"
    path.write_text(format_graph(chain))
    code, out = _run(capsys, "cotree", str(path))
    assert code == 0
    assert realize_cotree(parse_cotree_sexpr(out)) == chain


def test_empty_graph_chi_falls_back_and_cotree_refuses(capsys, tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text(format_graph(Graph(0)))
    for kind in ("alpha", "omega", "chi"):
        code, out = _run(capsys, "param", "--kind", kind, str(path))
        assert code == 0 and json.loads(out)["value"] == 0
    assert json.loads(out)["graph_class"] == "general"
    assert main(["cotree", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot build a cotree for the empty graph" in err
    assert "P4" not in err


def test_blocker_yes_and_no_exit_codes(capsys, p4_file):
    code, out = _run(capsys, "blocker", "--op", "contract", "--param", "alpha",
                     "--class", "bipartite", "-k", "2", "-d", "1", p4_file)
    assert code == 0 and json.loads(out)["answer"] == "yes"
    code, out = _run(capsys, "blocker", "--op", "contract", "--param", "alpha",
                     "--class", "bipartite", "-k", "1", "-d", "1", p4_file)
    assert code == 1 and json.loads(out)["answer"] == "no"


def test_blocker_rejects_non_bipartite(capsys, k4_file):
    assert main(["blocker", "--op", "contract", "--param", "alpha",
                 "--class", "bipartite", "-k", "1", "-d", "1", k4_file]) == 2


def test_mono_fixed_h(capsys, k4_file):
    code, out = _run(capsys, "mono", "--mode", "fixed-h", "-h", "2", k4_file)
    report = json.loads(out)
    assert code == 0
    assert report["min_mono_edges"] == 2
    assert len(report["deleted_edges"]) == 2


def test_mono_deficiency(capsys, k4_file):
    code, out = _run(capsys, "mono", "--mode", "deficiency", "-d", "1", k4_file)
    report = json.loads(out)
    assert code == 0 and report["min_mono_edges"] == 1 and report["chi"] == 4


def test_oracle_and_verify_roundtrip(capsys, tmp_path, k4_file):
    code, out = _run(capsys, "oracle", "--op", "delete-vertices", "--param", "omega",
                     "-k", "1", "-d", "1", k4_file)
    assert code == 0
    report_file = tmp_path / "report.json"
    report_file.write_text(out)
    code, out = _run(capsys, "verify", str(report_file), k4_file)
    assert code == 0 and json.loads(out)["valid"]


def test_verify_rejects_tampered_witness(capsys, tmp_path, p4_file):
    code, out = _run(capsys, "blocker", "--op", "contract", "--param", "alpha",
                     "--class", "bipartite", "-k", "2", "-d", "1", p4_file)
    report = json.loads(out)
    report["witness"]["edges"] = report["witness"]["edges"][:1]
    report_file = tmp_path / "tampered.json"
    report_file.write_text(json.dumps(report))
    code, out = _run(capsys, "verify", str(report_file), p4_file)
    assert code == 1 and not json.loads(out)["valid"]


def test_verify_rejects_wrong_graph(capsys, tmp_path, p4_file, k4_file):
    code, out = _run(capsys, "param", "--kind", "alpha", p4_file)
    report_file = tmp_path / "report.json"
    report_file.write_text(out)
    code, out = _run(capsys, "verify", str(report_file), k4_file)
    assert code == 1


def test_verify_mono_report(capsys, tmp_path, k4_file):
    code, out = _run(capsys, "mono", "--mode", "deficiency", "-d", "1", k4_file)
    report_file = tmp_path / "mono.json"
    report_file.write_text(out)
    code, out = _run(capsys, "verify", str(report_file), k4_file)
    assert code == 0 and json.loads(out)["valid"]


def test_verify_mono_report_above_chi_exact_ceiling(capsys, tmp_path):
    # 22 vertices: chi must be certified without chi_exact (n <= 20).
    halves = join(complete_multipartite_graph((3, 3)), complete_multipartite_graph((4, 4)))
    g = join(halves, Graph(8, [(0, 1), (2, 3)]))
    graph_file = tmp_path / "cograph22.graph"
    graph_file.write_text(format_graph(g))
    code, out = _run(capsys, "mono", "--mode", "deficiency", "-d", "1", str(graph_file))
    assert code == 0 and json.loads(out)["chi"] == 6
    report_file = tmp_path / "mono.json"
    report_file.write_text(out)
    code, out = _run(capsys, "verify", str(report_file), str(graph_file))
    assert code == 0 and json.loads(out)["valid"]


def test_verify_mono_report_above_omega_exact_ceiling(capsys, tmp_path):
    # 42 vertices: the clique must come from the cotree (omega_exact: n <= 40).
    g = join(complete_multipartite_graph((10, 11)), complete_multipartite_graph((10, 11)))
    graph_file = tmp_path / "cograph42.graph"
    graph_file.write_text(format_graph(g))
    code, out = _run(capsys, "mono", "--mode", "deficiency", "-d", "1", str(graph_file))
    assert code == 0 and json.loads(out)["chi"] == 4
    report_file = tmp_path / "mono.json"
    report_file.write_text(out)
    code, out = _run(capsys, "verify", str(report_file), str(graph_file))
    assert code == 0 and json.loads(out)["valid"]


def test_verify_param_chi_report_above_chi_exact_ceiling(capsys, tmp_path):
    # The 30-vertex threshold chain (odd vertices join all earlier ones) is
    # answered by the cograph route; verify must certify it without chi_exact.
    g = Graph(30, [(u, v) for v in range(1, 30, 2) for u in range(v)])
    graph_file = tmp_path / "chain30.graph"
    graph_file.write_text(format_graph(g))
    code, out = _run(capsys, "param", "--kind", "chi", str(graph_file))
    assert code == 0 and json.loads(out)["value"] == 16
    report_file = tmp_path / "chi.json"
    report_file.write_text(out)
    code, verdict = _run(capsys, "verify", str(report_file), str(graph_file))
    assert code == 0 and json.loads(verdict)["valid"]
    for wrong in (15, 17):
        report_file.write_text(json.dumps(dict(json.loads(out), value=wrong)))
        code, verdict = _run(capsys, "verify", str(report_file), str(graph_file))
        assert code == 1 and not json.loads(verdict)["valid"]


def test_long_augmenting_paths_at_the_default_recursion_limit(capsys, tmp_path):
    # On P_2000 an alternating path can run through all 2000 vertices, so no
    # route may recurse along one.
    assert sys.getrecursionlimit() <= 1000
    path = tmp_path / "p2000.graph"
    path.write_text(format_graph(path_graph(2000)))
    for kind, value in (("alpha", 1000), ("mu", 1000), ("tau", 1000)):
        code, out = _run(capsys, "param", "--kind", kind, str(path))
        assert code == 0 and json.loads(out)["value"] == value
    code, out = _run(capsys, "blocker", "-k", "5", "-d", "2", str(path))
    report = json.loads(out)
    assert code == 0 and report["value_before"] == 1000 and report["value_after"] <= 998


def _bipartite_file(tmp_path, n):
    path = tmp_path / f"bipartite{n}.graph"
    path.write_text(format_graph(random_connected_bipartite(random.Random(5), n, 0.15)))
    return str(path)


@pytest.mark.parametrize("kind", ["alpha", "mu", "tau"])
def test_verify_bipartite_param_report_above_alpha_exact_ceiling(capsys, tmp_path, kind):
    # 80 vertices: the value is certified by a matching and a vertex cover of
    # one size, not by alpha_exact (n <= 40).
    graph_file = _bipartite_file(tmp_path, 80)
    code, out = _run(capsys, "param", "--kind", kind, graph_file)
    assert code == 0
    report_file = tmp_path / f"{kind}.json"
    report_file.write_text(out)
    code, verdict = _run(capsys, "verify", str(report_file), graph_file)
    assert code == 0 and json.loads(verdict)["valid"], verdict
    report = json.loads(out)
    key = "edges" if kind == "mu" else "vertices"
    # One element off either way: drop one, or add one that keeps the
    # witness a witness where one exists (any vertex keeps a cover a cover).
    smaller = dict(report, value=report["value"] - 1,
                   witness={key: report["witness"][key][1:]})
    larger = dict(report, value=report["value"] + 1)
    if kind == "tau":
        spare = min(set(range(80)) - set(report["witness"][key]))
        larger["witness"] = {key: report["witness"][key] + [spare]}
    for wrong in (smaller, larger):
        report_file.write_text(json.dumps(wrong))
        code, verdict = _run(capsys, "verify", str(report_file), graph_file)
        assert code == 1 and not json.loads(verdict)["valid"]


# Above the exact solvers' ceilings (40 vertices, 20 for chi): a 60-vertex
# chordal graph, a 50-vertex threshold chain (a cograph with omega 26) and
# bipartite graphs on 80 and 50 vertices.
CLASS_ROUTE_GRAPHS = {
    "chordal60": random_chordal(random.Random(60), 60),
    "chain50": Graph(50, [(u, v) for v in range(1, 50, 2) for u in range(v)]),
    "bipartite80": random_connected_bipartite(random.Random(5), 80, 0.15),
    "bipartite50": random_connected_bipartite(random.Random(5), 50, 0.15),
}


@pytest.mark.parametrize("graph_name, kind, route", [
    ("chordal60", "alpha", "chordal"),
    ("chordal60", "tau", "chordal"),
    ("chain50", "omega", "cograph"),
    ("bipartite80", "omega", "bipartite"),
    ("bipartite50", "chi", "bipartite"),
])
def test_class_route_param_reports_verify_above_the_ceiling(capsys, tmp_path, graph_name,
                                                            kind, route):
    graph_file = tmp_path / f"{graph_name}.graph"
    graph_file.write_text(format_graph(CLASS_ROUTE_GRAPHS[graph_name]))
    code, out = _run(capsys, "param", "--kind", kind, str(graph_file))
    report = json.loads(out)
    assert code == 0 and report["graph_class"] == route
    report_file = tmp_path / "report.json"
    report_file.write_text(out)
    code, verdict = _run(capsys, "verify", str(report_file), str(graph_file))
    assert code == 0 and json.loads(verdict)["valid"], verdict
    # One short: a witness one element smaller (for tau no cover at all), or
    # for chi the last colour merged into the one before it.
    value, witness = report["value"] - 1, report["witness"]
    if "colouring" in witness:
        witness = {"colouring": [min(c, value) for c in witness["colouring"]]}
    else:
        witness = {"vertices": witness["vertices"][1:]}
    report_file.write_text(json.dumps(dict(report, value=value, witness=witness)))
    code, verdict = _run(capsys, "verify", str(report_file), str(graph_file))
    assert code == 1 and not json.loads(verdict)["valid"]


def test_verify_blocker_report_on_a_path_above_the_ceiling(capsys, tmp_path):
    # P_60 and each contraction of it are paths: König certifies both values.
    graph_file = tmp_path / "p60.graph"
    graph_file.write_text(format_graph(path_graph(60)))
    code, out = _run(capsys, "blocker", "-k", "5", "-d", "2", str(graph_file))
    assert code == 0 and json.loads(out)["answer"] == "yes"
    report_file = tmp_path / "blocker.json"
    report_file.write_text(out)
    code, verdict = _run(capsys, "verify", str(report_file), str(graph_file))
    assert code == 0 and json.loads(verdict)["valid"], verdict


def test_verify_refusal_exits_3_not_invalid(capsys, tmp_path):
    # König certifies the before-value on 50 vertices, but the contracted
    # graph's 45 vertices leave every class and need alpha_exact (n <= 40):
    # that is a refusal, not a rejection.
    graph_file = _bipartite_file(tmp_path, 50)
    code, out = _run(capsys, "blocker", "-k", "5", "-d", "2", graph_file)
    assert code == 0 and json.loads(out)["answer"] == "yes"
    report_file = tmp_path / "blocker.json"
    report_file.write_text(out)
    code = main(["verify", str(report_file), graph_file])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "capacity exceeded: 45 vertices exceed the budget of 40" in captured.err


def test_reduce_sat2chordal(capsys, tmp_path):
    inst = tmp_path / "sat.txt"
    inst.write_text("p wp2sat 2 1 1\n1 2\n")
    out_graph = tmp_path / "gadget.graph"
    code, out = _run(capsys, "reduce", "sat2chordal", str(inst), "-o", str(out_graph))
    assert code == 0
    payload = json.loads(out)
    assert payload["graph"].splitlines()[1] == "9 18"
    assert out_graph.exists()


def test_reduce_vc2cb_and_mss(capsys, tmp_path):
    base = tmp_path / "c4.graph"
    base.write_text(format_graph(cycle_graph(4)))
    code, out = _run(capsys, "reduce", "vc2cb", str(base), "-k", "2")
    assert code == 0
    assert json.loads(out)["gadget_map"]["universal_vertex"] == 4

    inst = tmp_path / "mss.txt"
    inst.write_text("2 1 4\n1 1\n")
    code, out = _run(capsys, "reduce", "mss2mono", str(inst))
    payload = json.loads(out)
    assert code == 0
    assert payload["target"] == {"exact": "1", "budget": 1}


REDUCE_SOURCES = {
    "vc2cb": (format_graph(cycle_graph(6)), ["-k", "2"]),
    "sat2chordal": ("p wp2sat 3 2 1\n1 2\n2 3\n", []),
    "mss2mono": ("3 2 20\n1 2 3\n", []),
}


def _reduce_report(capsys, tmp_path, construction):
    text, extra = REDUCE_SOURCES[construction]
    source = tmp_path / f"{construction}.src"
    source.write_text(text)
    gadget = tmp_path / f"{construction}.graph"
    code, out = _run(capsys, "reduce", construction, str(source), *extra, "-o", str(gadget))
    assert code == 0
    return json.loads(out), source


@pytest.mark.parametrize("construction", sorted(REDUCE_SOURCES))
def test_verify_reduce_round_trip(capsys, tmp_path, construction):
    report, source = _reduce_report(capsys, tmp_path, construction)
    report_file = tmp_path / "reduce.json"
    report_file.write_text(json.dumps(report))
    code, out = _run(capsys, "verify", str(report_file), str(source))
    assert code == 0 and json.loads(out)["valid"], out


@pytest.mark.parametrize("construction", sorted(REDUCE_SOURCES))
def test_verify_reduce_rejects_a_removed_gadget_edge(capsys, tmp_path, construction):
    # The input digest still matches: only the gadget rebuilt from the input
    # file can tell.
    report, source = _reduce_report(capsys, tmp_path, construction)
    g = parse_graph(report["graph"])
    report["graph"] = format_graph(delete_edges(g, [g.edges()[-1]]))
    report_file = tmp_path / "reduce.json"
    report_file.write_text(json.dumps(report))
    code, out = _run(capsys, "verify", str(report_file), str(source))
    verdict = json.loads(out)
    assert code == 1 and not verdict["valid"]
    assert verdict["detail"] == (
        f"graph differs from the {construction} gadget rebuilt from the input file"
    )


def test_verify_reduce_names_a_changed_gadget_map(capsys, tmp_path):
    report, source = _reduce_report(capsys, tmp_path, "sat2chordal")
    report["gadget_map"]["clause_vertex"].reverse()
    report_file = tmp_path / "reduce.json"
    report_file.write_text(json.dumps(report))
    code, out = _run(capsys, "verify", str(report_file), str(source))
    assert code == 1
    assert json.loads(out)["detail"] == (
        "gadget_map.clause_vertex differs from the sat2chordal gadget rebuilt from the input file"
    )


# For each construction, a second source whose report must not verify
# against the first.  The mss2mono pair differs only in J, so the gadget
# graph and map agree and only the instance and target can tell.
REDUCE_FORGERIES = {
    "vc2cb": format_graph(delete_edges(cycle_graph(6), [(0, 1)])),
    "sat2chordal": "p wp2sat 3 1 1\n1 2\n",
    "mss2mono": "3 2 19\n1 2 3\n",
}


@pytest.mark.parametrize("construction", sorted(REDUCE_FORGERIES))
@pytest.mark.parametrize("keep_digest", [True, False], ids=["digest", "no-digest"])
def test_verify_reduce_rejects_a_report_of_another_source(capsys, tmp_path, construction,
                                                          keep_digest):
    _, source = _reduce_report(capsys, tmp_path, construction)
    forged_source = tmp_path / "forged.src"
    forged_source.write_text(REDUCE_FORGERIES[construction])
    code, out = _run(capsys, "reduce", construction, str(forged_source),
                     *REDUCE_SOURCES[construction][1])
    assert code == 0
    forged = json.loads(out)
    if not keep_digest:
        del forged["input_digest"]
    report_file = tmp_path / "forged.json"
    report_file.write_text(json.dumps(forged))
    code, out = _run(capsys, "verify", str(report_file), str(source))
    verdict = json.loads(out)
    assert code == 1 and not verdict["valid"], out
    if keep_digest:
        assert verdict["detail"] == "input digest does not match the input file"
    else:
        assert verdict["detail"] == "report has no input_digest"
        # Given the digest of the real source, only the gadget rebuilt from
        # the input file can tell.
        forged["input_digest"] = digest_bytes(source.read_bytes())
        report_file.write_text(json.dumps(forged))
        code, out = _run(capsys, "verify", str(report_file), str(source))
        assert code == 1 and "rebuilt from the input file" in json.loads(out)["detail"], out


@pytest.mark.parametrize(
    "construction, change",
    [
        ("vc2cb", {"construction": None}),
        ("sat2chordal", {"construction": None}),
        ("vc2cb", {"construction": ["vc2cb"]}),
        ("mss2mono", {"construction": ["mss2mono"]}),
        ("vc2cb", {"construction": "vc2cc"}),
        ("vc2cb", {"k": None}),
        ("vc2cb", {"k": True}),
        ("sat2chordal", {"construction": "vc2cb", "k": 1}),
        ("vc2cb", {"construction": "mss2mono"}),
    ],
    ids=["vc2cb-no-construction", "sat-no-construction", "vc2cb-list", "mss-list", "unknown",
         "k-missing", "k-true", "sat-read-as-graph", "graph-read-as-mss"],
)
def test_verify_malformed_reduce_report_is_invalid_or_bad_input(capsys, tmp_path,
                                                                 construction, change):
    report, source = _reduce_report(capsys, tmp_path, construction)
    for key, value in change.items():
        if value is None:
            del report[key]
        else:
            report[key] = value
    report_file = tmp_path / "reduce.json"
    report_file.write_text(json.dumps(report))
    assert main(["verify", str(report_file), str(source)]) in (1, 2)


def test_verify_requires_the_input_digest(capsys, tmp_path, p4_file):
    # alpha(C4) = 2 = alpha(P4), so only the digest ties the report to C4.
    c4_file = tmp_path / "c4.graph"
    c4_file.write_text(format_graph(cycle_graph(4)))
    _, out = _run(capsys, "param", "--kind", "alpha", str(c4_file))
    report = json.loads(out)
    del report["input_digest"]
    report_file = tmp_path / "no-digest.json"
    report_file.write_text(json.dumps(report))
    for graph_file in (str(c4_file), p4_file):
        code, out = _run(capsys, "verify", str(report_file), graph_file)
        assert code == 1 and json.loads(out) == {"valid": False,
                                                 "detail": "report has no input_digest"}


# Parts of a report that the library rejects, and the complaint verify names.
NAMED_COMPLAINTS = {
    "reduce-no-construction": (
        ["reduce", "vc2cb", "-k", "2"], lambda r: r.pop("construction"),
        "unknown construction None",
    ),
    "blocker-chord-as-witness": (
        ["blocker", "-k", "1", "-d", "1"], lambda r: r["witness"].update(edges=[[0, 2]]),
        "(0, 2) is not an edge of the host graph",
    ),
}


@pytest.mark.parametrize("name", sorted(NAMED_COMPLAINTS))
def test_verify_names_what_the_library_rejects(capsys, tmp_path, name):
    argv, change, complaint = NAMED_COMPLAINTS[name]
    c4_file = tmp_path / "c4.graph"
    c4_file.write_text(format_graph(cycle_graph(4)))
    code, out = _run(capsys, *argv, str(c4_file))
    assert code == 0
    report = json.loads(out)
    change(report)
    report_file = tmp_path / "changed.json"
    report_file.write_text(json.dumps(report))
    code, out = _run(capsys, "verify", str(report_file), str(c4_file))
    assert code == 1 and json.loads(out) == {"valid": False, "detail": complaint}


def test_reduce_rejects_triangle_input(capsys, tmp_path):
    bad = tmp_path / "k3.graph"
    bad.write_text(format_graph(complete_graph(3)))
    assert main(["reduce", "vc2cb", str(bad), "-k", "1"]) == 2


def test_catalogue_stdout_and_outdir(capsys, tmp_path):
    code, out = _run(capsys, "catalogue", "--class", "cograph", "--n", "3")
    assert code == 0
    assert out.count("# cograph") == 4  # 1 + 1 + 2 connected cographs

    outdir = tmp_path / "graphs"
    code, _ = _run(capsys, "catalogue", "--class", "cograph", "--n", "3",
                   "--outdir", str(outdir))
    assert code == 0
    assert len(list(outdir.glob("*.graph"))) == 4


def test_catalogue_bad_input_exit_code(capsys):
    assert main(["catalogue", "--class", "cograph", "--n", "-1"]) == 2
    assert "n_max" in capsys.readouterr().err
    assert main(["catalogue", "--class", "bogus", "--n", "3"]) == 2
    assert "unknown catalogue class" in capsys.readouterr().err


SOLVER_MODULES = {"monochromatic", "reductions", "catalogue", "isomorphism", "bipartite_blocker"}

# Importing dataclasses pulls in inspect, ast, dis and tokenize, and each
# frozen dataclass then costs about 1.5 ms to define.  A short-lived process
# loads none of them, nor traceback, which only an internal error needs.
NEVER_LOADED = {"dataclasses", "inspect", "traceback"}


def _modules_loaded_by(code):
    """The modules a fresh interpreter holds after running code, by full name."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = f"{code}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _package_part(loaded):
    return {m.removeprefix("blockerlab.") for m in loaded if m.startswith("blockerlab.")}


def test_package_root_imports_no_submodule():
    assert _package_part(_modules_loaded_by("import blockerlab")) == set()


def test_light_subcommands_import_no_solver(capsys, tmp_path, p4_file, k4_file):
    _, out = _run(capsys, "blocker", "-k", "2", "-d", "1", p4_file)
    report = tmp_path / "blocker.json"
    report.write_text(out)
    sources = {}
    for construction, (text, _) in REDUCE_SOURCES.items():
        sources[construction] = tmp_path / f"{construction}.src"
        sources[construction].write_text(text)
    # Each route's argv, and the modules a run of it must not load: package
    # modules by their name in the package, and the standard library's
    # fractions.
    runs = [
        (["cotree", k4_file],
         SOLVER_MODULES | {"certificates", "oracle", "parameters", "recognizers", "report"}),
        (["catalogue", "--class", "bipartite", "--n", "4"],
         {"cotree", "oracle", "parameters", "report"}),
        (["catalogue", "--class", "chordal", "--n", "4"],
         {"certificates", "cotree", "oracle", "parameters", "recognizers", "report"}),
        (["param", "--kind", "alpha", "--class", "bipartite", p4_file],
         SOLVER_MODULES | {"cotree", "oracle"}),
        # K4 is a cograph too, but the chordal route reads no cotree.
        (["param", "--kind", "alpha", "--class", "chordal", k4_file],
         SOLVER_MODULES | {"cotree", "oracle"}),
        (["mono", "--mode", "deficiency", "-d", "1", k4_file],
         {"certificates", "oracle", "parameters", "recognizers"}),
        (["oracle", "--op", "contract", "--param", "alpha", "-k", "2", "-d", "1", p4_file],
         SOLVER_MODULES | {"cotree", "recognizers"}),
        (["verify", str(report), p4_file], SOLVER_MODULES),
        (["blocker", "-k", "2", "-d", "1", p4_file], {"cotree"}),
        (["reduce", "vc2cb", "-k", "2", str(sources["vc2cb"])],
         {"certificates", "cotree", "monochromatic", "parameters", "recognizers", "fractions"}),
        (["reduce", "sat2chordal", str(sources["sat2chordal"])],
         {"cotree", "monochromatic", "fractions"}),
        (["reduce", "mss2mono", str(sources["mss2mono"])],
         {"cotree", "monochromatic", "parameters"}),
    ]
    for argv, excluded in runs:
        loaded = _modules_loaded_by(f"from blockerlab.cli import main\nassert main({argv!r}) == 0")
        assert "blockerlab.cli" in loaded
        assert not loaded & NEVER_LOADED, (argv[0], loaded & NEVER_LOADED)
        hit = (_package_part(loaded) | loaded) & excluded
        assert not hit, (argv, hit)


def test_capacity_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKERLAB_BUDGET", "5")
    big = tmp_path / "big.graph"
    big.write_text(format_graph(complete_graph(6)))
    code = main(["oracle", "--op", "contract", "--param", "alpha",
                 "-k", "3", "-d", "1", str(big)])
    assert code == 3


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_bad_budget_variable_is_a_usage_error(value, capsys, p4_file, monkeypatch):
    monkeypatch.setenv("BLOCKERLAB_BUDGET", value)
    code = main(["oracle", "--op", "contract", "--param", "alpha", "-k", "1", "-d", "1", p4_file])
    assert code == 2
    assert "BLOCKERLAB_BUDGET must be a non-negative integer" in capsys.readouterr().err


def test_blocker_enumeration_is_budgeted(capsys, tmp_path, monkeypatch):
    # C_40 with k=4 <= 2d enumerates 102,091 edge sets: refused, not run.
    monkeypatch.setenv("BLOCKERLAB_BUDGET", "1000")
    path = tmp_path / "c40.graph"
    path.write_text(format_graph(cycle_graph(40)))
    code = main(["blocker", "-k", "4", "-d", "3", str(path)])
    assert code == 3
    assert "102091" in capsys.readouterr().err


def test_blocker_with_k_below_d_answers_at_any_size(capsys, tmp_path):
    # Two contractions cannot lower alpha by 3, so C_4600 is a no without
    # its 10,582,301 edge sets of at most two edges, and the no verifies.
    path = tmp_path / "c4600.graph"
    path.write_text(format_graph(cycle_graph(4600)))
    code, out = _run(capsys, "blocker", "-k", "2", "-d", "3", str(path))
    report = json.loads(out)
    assert code == 1 and report["answer"] == "no" and report["value_before"] == 2300
    report_file = tmp_path / "blocker.json"
    report_file.write_text(out)
    code, verdict = _run(capsys, "verify", str(report_file), str(path))
    assert code == 0 and json.loads(verdict)["valid"], verdict


def test_blocker_caps_d_only_on_the_enumeration_route(capsys, tmp_path):
    # k = 2d+1 on a path of 200 vertices takes the tree route, which answers
    # d = 4 and verifies; k = 5 on C_10 would scan, so d = 4 is refused.
    path = tmp_path / "p200.graph"
    path.write_text(format_graph(path_graph(200)))
    code, out = _run(capsys, "blocker", "-k", "9", "-d", "4", str(path))
    report = json.loads(out)
    assert code == 0 and report["value_before"] == 100 and report["value_after"] == 96
    report_file = tmp_path / "blocker.json"
    report_file.write_text(out)
    code, verdict = _run(capsys, "verify", str(report_file), str(path))
    assert code == 0 and json.loads(verdict)["valid"], verdict
    cycle = tmp_path / "c10.graph"
    cycle.write_text(format_graph(cycle_graph(10)))
    assert main(["blocker", "-k", "5", "-d", "4", str(cycle)]) == 2
    assert "d <= 3 supported, got 4" in capsys.readouterr().err


def test_oracle_with_k_below_d_charges_no_subsets(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKERLAB_BUDGET", "1")
    path = tmp_path / "k6.graph"
    path.write_text(format_graph(complete_graph(6)))
    code, out = _run(capsys, "oracle", "--op", "delete-vertices", "--param", "chi",
                     "-k", "1", "-d", "2", str(path))
    report = json.loads(out)
    assert code == 1 and report["answer"] == "no" and report["value_before"] == 6


def test_removed_options_are_usage_errors(p4_file):
    for argv in (
        ["blocker", "--threads", "2", "-k", "1", "-d", "1", p4_file],
        ["oracle", "--op", "contract", "--param", "alpha", "--threads", "2",
         "-k", "1", "-d", "1", p4_file],
        ["catalogue", "--class", "cograph", "--n", "3", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_internal_error_is_not_a_no(capsys, monkeypatch, k4_file):
    def crash(g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cotree, "build_cotree", crash)
    assert main(["cotree", k4_file]) == 4
    assert "internal error" in capsys.readouterr().err


def test_bad_file_exit_code(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("garbage\n")
    assert main(["param", "--kind", "alpha", str(bad)]) == 2
    assert main(["param", "--kind", "alpha", str(tmp_path / "missing.graph")]) == 2


# Byte pin of every answering subcommand: each argv is run in-process from a
# scratch directory holding the named files, and (argv, exit code, stdout,
# stderr) is hashed with the timing masked.  The pin sees key order, which a digest of
# re-dumped reports cannot.
PIN_GRAPHS = {
    "c6.graph": cycle_graph(6),
    "p4.graph": path_graph(4),
    "k4.graph": complete_graph(4),
    "chordal12.graph": random_chordal(random.Random(4), 12),
    "empty.graph": Graph(0),
    "bip10.graph": random_connected_bipartite(random.Random(10), 10, 0.4),
    "k232.graph": complete_multipartite_graph([2, 3, 2]),
}
PIN_INSTANCES = {
    "sat.txt": "p wp2sat 3 2 2\n1 2\n2 3\n",
    "mss.txt": "2 1 4\n1 1\n",
}
# The classes each param graph is in, for the runs with an explicit --class.
PIN_CLASSES = {
    "c6.graph": ("bipartite",),
    "p4.graph": ("bipartite", "chordal"),
    "k4.graph": ("chordal", "cograph"),
    "chordal12.graph": ("chordal",),
    "empty.graph": ("bipartite", "chordal"),
}
PIN_DIGEST = "cfd681d8e6362cd1"


def _pin_argvs():
    for name, classes in PIN_CLASSES.items():
        for kind in ("alpha", "omega", "chi", "mu", "tau"):
            yield ["param", "--kind", kind, name]
            for klass in classes:
                yield ["param", "--kind", kind, "--class", klass, name]
    for name in ("c6.graph", "bip10.graph"):
        for k, d in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (1, 2)):
            yield ["blocker", "-k", str(k), "-d", str(d), name]
    yield ["blocker", "-k", "1", "-d", "1", "k4.graph"]
    for name in ("c6.graph", "k4.graph", "bip10.graph"):
        for op in ("contract", "delete-vertices", "delete-edges"):
            for param in ("alpha", "omega", "chi"):
                yield ["oracle", "--op", op, "--param", param, "-k", "2", "-d", "1", name]
    for name in ("k4.graph", "k232.graph"):
        yield ["mono", "--mode", "fixed-h", "-h", "2", name]
        yield ["mono", "--mode", "fixed-h", "-h", "3", name]
        yield ["mono", "--mode", "deficiency", "-d", "1", name]
        yield ["mono", "--mode", "deficiency", "-d", "2", name]
        yield ["cotree", name]
    yield ["mono", "--mode", "fixed-h", "k4.graph"]
    yield ["mono", "--mode", "deficiency", "-d", "1", "p4.graph"]
    yield ["reduce", "vc2cb", "c6.graph", "-k", "2", "-o", "gadget.graph"]
    yield ["reduce", "vc2cb", "c6.graph"]
    yield ["reduce", "vc2cb", "k4.graph", "-k", "1"]
    yield ["reduce", "sat2chordal", "sat.txt"]
    yield ["reduce", "mss2mono", "mss.txt"]


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """(argv, exit code, stdout, stderr) of every pinned argv, each report
    followed by the run of ``verify`` on it."""
    where = tmp_path_factory.mktemp("pin")
    for name, g in PIN_GRAPHS.items():
        (where / name).write_text(format_graph(g))
    for name, text in PIN_INSTANCES.items():
        (where / name).write_text(text)
    runs = []
    cwd = os.getcwd()
    os.chdir(where)
    try:
        for i, argv in enumerate(_pin_argvs()):
            code, out, err = _main_captured(argv)
            runs.append((argv, code, out, err))
            if argv[0] in ("param", "blocker", "oracle", "mono", "reduce") and code in (0, 1):
                report = f"report{i}.json"
                Path(report).write_text(out)
                # A reduce report verifies against its instance file.
                verify = ["verify", report, argv[2] if argv[0] == "reduce" else argv[-1]]
                runs.append((verify, *_main_captured(verify)))
    finally:
        os.chdir(cwd)
    return runs


def _masked(out):
    return re.sub(r'"wall_time_s": [^,\n]+', '"wall_time_s": 0', out)


def test_answering_subcommands_are_byte_pinned(pinned_runs):
    h = hashlib.sha256()
    for argv, code, out, err in pinned_runs:
        h.update(json.dumps([argv, code, _masked(out), err]).encode())
    assert h.hexdigest()[:16] == PIN_DIGEST, h.hexdigest()[:16]


SCHEMA = json.loads(
    (Path(cli.__file__).resolve().parents[2] / "docs" / "report_schema.json").read_text()
)


def _schema_variant(subcommand):
    for variant in SCHEMA["oneOf"]:
        declared = variant["properties"]["subcommand"]
        if subcommand in declared.get("enum", [declared.get("const")]):
            return variant
    raise AssertionError(f"the schema has no variant for {subcommand!r}")


def test_every_pinned_report_conforms_to_the_schema(pinned_runs):
    """Each report's keys are declared and its required keys present, each
    enum or const field holds a declared value, and every declared witness
    key is written by some run.  Standard library only: no schema engine."""
    witness_keys = set(SCHEMA["$defs"]["witness"]["properties"])
    written = set()
    for argv, code, out, _ in pinned_runs:
        if argv[0] in ("cotree", "verify") or code not in (0, 1):
            continue
        report = json.loads(out)
        variant = _schema_variant(report["subcommand"])
        parts = (SCHEMA, variant)
        declared = {key for part in parts for key in part["properties"]}
        assert set(report) <= declared, (argv, set(report) - declared)
        required = {key for part in parts for key in part["required"]}
        assert required <= set(report), (argv, required - set(report))
        for part in parts:
            for key, prop in part["properties"].items():
                allowed = prop.get("enum", [prop["const"]] if "const" in prop else None)
                if key in report and allowed is not None:
                    assert report[key] in allowed, (argv, key, report[key])
        witness = report.get("witness") or {}
        assert set(witness) <= witness_keys, (argv, set(witness) - witness_keys)
        written |= set(witness)
    assert written == witness_keys, witness_keys - written
