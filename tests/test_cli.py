import json

import pytest

from blockerlab.cli import main
from blockerlab.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph_join,
    path_graph,
)
from blockerlab.graphio import format_graph


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


def test_param_class_mismatch(capsys, k4_file):
    code = main(["param", "--kind", "mu", k4_file])
    assert code == 2


def test_cotree_prints_sexpr(capsys, k4_file):
    code, out = _run(capsys, "cotree", k4_file)
    assert code == 0
    assert out.strip() == "(1 (1 (1 0 1) 2) 3)"


def test_cotree_rejects_non_cograph(capsys, p4_file):
    assert main(["cotree", p4_file]) == 2


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
    halves = graph_join(complete_bipartite_graph(3, 3), complete_bipartite_graph(4, 4))
    g = graph_join(halves, Graph(8, [(0, 1), (2, 3)]))
    graph_file = tmp_path / "cograph22.graph"
    graph_file.write_text(format_graph(g))
    code, out = _run(capsys, "mono", "--mode", "deficiency", "-d", "1", str(graph_file))
    assert code == 0 and json.loads(out)["chi"] == 6
    report_file = tmp_path / "mono.json"
    report_file.write_text(out)
    code, out = _run(capsys, "verify", str(report_file), str(graph_file))
    assert code == 0 and json.loads(out)["valid"]


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


def test_capacity_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKERLAB_BUDGET", "5")
    big = tmp_path / "big.graph"
    big.write_text(format_graph(complete_graph(6)))
    code = main(["oracle", "--op", "contract", "--param", "alpha",
                 "-k", "3", "-d", "1", str(big)])
    assert code == 3


def test_bad_file_exit_code(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("garbage\n")
    assert main(["param", "--kind", "alpha", str(bad)]) == 2
    assert main(["param", "--kind", "alpha", str(tmp_path / "missing.graph")]) == 2
