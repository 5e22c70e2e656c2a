import pytest

from blockerlab.graph import Graph, complete_graph, cycle_graph, path_graph
from blockerlab.graphio import format_graph
from blockerlab.report import digest_bytes
from blockerlab.report import verify_report as verify_against_file


def verify_report(report, g):
    """Verify ``report`` as ``blockerlab verify`` does, against the bytes of
    ``g``'s graph file; a report without a digest is given that file's."""
    data = format_graph(g).encode()
    if isinstance(report, dict):
        report = {"input_digest": digest_bytes(data), **report}
    return verify_against_file(report, g, data)


@pytest.fixture
def k4():
    return complete_graph(4)


def _blocker_report(**overrides):
    report = {
        "subcommand": "oracle",
        "operation": "delete-vertices",
        "parameter": "omega",
        "k": 1,
        "d": 1,
        "answer": "yes",
        "witness": {"vertices": [0]},
        "value_before": 4,
        "value_after": 3,
    }
    report.update(overrides)
    return report


def test_valid_blocker_report(k4):
    ok, detail = verify_report(_blocker_report(), k4)
    assert ok, detail


def test_digest_mismatch(k4):
    report = _blocker_report(input_digest=digest_bytes(b"something else"))
    ok, detail = verify_report(report, k4)
    assert not ok and "digest" in detail


def test_report_without_digest_is_invalid():
    # alpha(C4) = 2 = alpha(P4): without its digest, a report of C4 would
    # prove its claim about any file it is checked against.
    report = {"subcommand": "param", "kind": "alpha", "value": 2, "witness": {"vertices": [0, 2]}}
    for g in (cycle_graph(4), path_graph(4)):
        assert verify_report(report, g)[0]
        ok, detail = verify_against_file(report, g, format_graph(g).encode())
        assert not ok and detail == "report has no input_digest"


def test_oversized_witness_rejected(k4):
    ok, detail = verify_report(_blocker_report(witness={"vertices": [0, 1]}), k4)
    assert not ok and "budget" in detail


def test_wrong_before_value_rejected(k4):
    ok, detail = verify_report(_blocker_report(value_before=5), k4)
    assert not ok


def test_insufficient_drop_rejected(k4):
    # Deleting one vertex of C4 keeps omega at 2.
    report = _blocker_report(value_before=None, value_after=None)
    ok, detail = verify_report(report, cycle_graph(4))
    assert not ok and "drop" in detail


def test_no_answers_are_vacuously_valid(k4):
    report = _blocker_report(answer="no", witness=None, value_after=None)
    ok, _ = verify_report(report, k4)
    assert ok


@pytest.mark.parametrize(
    "overrides, complaint",
    [
        ({"answer": "maybe"}, "answer must be"),
        ({"answer": None}, "answer must be"),
        ({"d": 0, "witness": {"edges": []}, "value_after": None}, "d must be"),
        ({"d": 1.5}, "d must be"),
        ({"d": True}, "d must be"),
        ({"k": -1}, "k must be"),
        ({"k": "2"}, "k must be"),
        ({"value_after": True}, "value_after must be"),
        ({"value_before": 2.0, "value_after": 1.0}, "value_before must be"),
        ({"answer": "no", "witness": None, "value_before": "2", "value_after": None},
         "value_before must be"),
        ({"parameter": "tau"}, "parameter must be one of alpha, omega, chi, got 'tau'"),
        ({"parameter": "mu", "answer": "no"}, "parameter must be one of alpha, omega, chi"),
    ],
    ids=["maybe", "null-answer", "d-zero", "d-float", "d-bool", "k-negative", "k-string",
         "after-bool", "values-float", "no-before-string", "tau", "mu-no"],
)
def test_blocker_report_outside_the_schema_rejected(overrides, complaint):
    # P4 has alpha 2; contracting both end edges leaves one edge, alpha 1.
    report = {
        "subcommand": "blocker",
        "operation": "contract",
        "parameter": "alpha",
        "k": 2,
        "d": 1,
        "answer": "yes",
        "witness": {"edges": [[0, 1], [2, 3]]},
        "value_before": 2,
        "value_after": 1,
    }
    ok, detail = verify_report(report, path_graph(4))
    assert ok, detail
    report.update(overrides)
    ok, detail = verify_report(report, path_graph(4))
    assert not ok and complaint in detail


def test_param_report_value_must_match(k4):
    report = {
        "subcommand": "param",
        "kind": "alpha",
        "value": 2,
        "witness": {"vertices": [0, 1]},
    }
    ok, _ = verify_report(report, k4)
    assert not ok  # the "independent set" is an edge, and alpha(K4) is 1


def test_param_omega_report_on_cograph_above_omega_exact_ceiling():
    # A 60-vertex threshold chain: the clique of vertex 0 and the 30 odd
    # vertices is checked against the cotree, not omega_exact (n <= 40).
    g = Graph(60, [(u, v) for v in range(1, 60, 2) for u in range(v)])
    clique = [0] + list(range(1, 60, 2))
    report = {"subcommand": "param", "kind": "omega", "value": 31, "witness": {"vertices": clique}}
    ok, detail = verify_report(report, g)
    assert ok, detail
    report.update(value=30, witness={"vertices": clique[1:]})
    ok, detail = verify_report(report, g)
    assert not ok and "recomputed 31" in detail


def test_mono_report_colour_budget_enforced(k4):
    report = {
        "subcommand": "mono",
        "mode": "deficiency",
        "d": 1,
        "chi": 4,
        "min_mono_edges": 0,
        "colouring": [1, 2, 3, 4],
        "deleted_edges": [],
    }
    ok, detail = verify_report(report, k4)
    assert not ok and "budget" in detail


def test_unknown_subcommand_rejected(k4):
    ok, detail = verify_report({"subcommand": "mystery"}, k4)
    assert not ok


def test_unknown_operation_rejected(k4):
    report = _blocker_report(operation="shrink", witness={"edges": [[0, 1]]})
    ok, detail = verify_report(report, k4)
    assert not ok and "unknown operation" in detail


def test_malformed_report_never_raises(k4):
    ok, detail = verify_report({"subcommand": "oracle"}, k4)
    assert not ok and "error" in detail


def test_mu_report_on_non_bipartite_graph_is_refused_explicitly():
    # A triangle's maximum matching has one edge, but n - alpha is 2: König's
    # identity needs a bipartite graph, so verify must not recompute mu that way.
    report = {"subcommand": "param", "kind": "mu", "value": 1, "witness": {"edges": [[0, 1]]}}
    ok, detail = verify_report(report, complete_graph(3))
    assert not ok
    assert "bipartite" in detail and "recomputed" not in detail
    report.update(value=2, witness={"edges": [[0, 1], [2, 3]]})
    ok, detail = verify_report(report, cycle_graph(4))
    assert ok, detail


def _mono_report(**overrides):
    # K4 with 3 colours: one pair shares a colour, one monochromatic edge.
    report = {
        "subcommand": "mono",
        "mode": "deficiency",
        "d": 1,
        "chi": 4,
        "min_mono_edges": 1,
        "colouring": [1, 1, 2, 3],
        "deleted_edges": [[0, 1]],
    }
    report.update(overrides)
    return report


@pytest.mark.parametrize(
    "overrides, complaint",
    [
        ({"mode": "bogus"}, "mode must be"),
        ({"mode": None}, "mode must be"),
        ({"d": -1}, "d must be"),
        ({"d": 0.5}, "d must be"),
        ({"d": False}, "d must be"),
        ({"mode": "fixed-h", "h": 3.5}, "h must be"),
        ({"mode": "fixed-h", "h": 0}, "h must be"),
        ({"mode": "fixed-h", "h": True}, "h must be"),
        ({"min_mono_edges": True}, "min_mono_edges must be"),
        ({"chi": 4.0}, "chi must be"),
        ({"chi": True}, "chi must be"),
    ],
    ids=["bogus-mode", "null-mode", "d-negative", "d-float", "d-bool",
         "h-float", "h-zero", "h-bool", "count-bool", "chi-float", "chi-bool"],
)
def test_mono_report_outside_the_schema_rejected(k4, overrides, complaint):
    ok, detail = verify_report(_mono_report(), k4)
    assert ok, detail
    ok, detail = verify_report(_mono_report(mode="fixed-h", h=3), k4)
    assert ok, detail
    ok, detail = verify_report(_mono_report(**overrides), k4)
    assert not ok and complaint in detail


@pytest.mark.parametrize("value", [True, -1, 1.0, "1", None], ids=["bool", "negative", "float", "string", "null"])
def test_param_report_value_outside_the_schema_rejected(k4, value):
    report = {"subcommand": "param", "kind": "alpha", "value": 1, "witness": {"vertices": [0]}}
    ok, detail = verify_report(report, k4)
    assert ok, detail
    report["value"] = value
    ok, detail = verify_report(report, k4)
    assert not ok and "value must be" in detail


def test_single_vertex_mono_report_with_boolean_chi_rejected():
    # chi is 1 here, and True == 1: only the integer check can tell them apart.
    report = {"subcommand": "mono", "mode": "deficiency", "d": 0, "chi": 1,
              "min_mono_edges": 0, "colouring": [1], "deleted_edges": []}
    ok, detail = verify_report(report, Graph(1))
    assert ok, detail
    ok, detail = verify_report(dict(report, chi=True), Graph(1))
    assert not ok and "chi must be" in detail


# A vertex, an edge end or a colour that JSON writes as false, true or 1.0
# compares equal to an integer in Python, but the schema declares integers.
@pytest.mark.parametrize("entry", [False, 0.0], ids=["false", "float"])
def test_param_witness_entries_must_be_integers(entry):
    report = {"subcommand": "param", "kind": "alpha", "value": 2, "witness": {"vertices": [0, 2]}}
    ok, detail = verify_report(report, path_graph(3))
    assert ok, detail
    report["witness"]["vertices"][0] = entry
    ok, detail = verify_report(report, path_graph(3))
    assert not ok and detail == f"vertices must hold integers, got {entry!r}"


@pytest.mark.parametrize("entry", [True, 1.0], ids=["true", "float"])
def test_mono_colouring_entries_must_be_integers(entry):
    report = {"subcommand": "mono", "mode": "deficiency", "d": 0, "chi": 2,
              "min_mono_edges": 0, "colouring": [1, 2], "deleted_edges": []}
    ok, detail = verify_report(report, complete_graph(2))
    assert ok, detail
    report["colouring"][0] = entry
    ok, detail = verify_report(report, complete_graph(2))
    assert not ok and detail == f"colouring must hold integers, got {entry!r}"


@pytest.mark.parametrize("entry", [True, 1.0], ids=["true", "float"])
def test_oracle_witness_edge_ends_must_be_integers(entry):
    # Contracting one edge of P3 drops alpha from 2 to 1.
    report = {"subcommand": "oracle", "operation": "contract", "parameter": "alpha",
              "k": 1, "d": 1, "answer": "yes", "witness": {"edges": [[0, 1]]},
              "value_before": 2, "value_after": 1}
    ok, detail = verify_report(report, path_graph(3))
    assert ok, detail
    report["witness"]["edges"][0][1] = entry
    ok, detail = verify_report(report, path_graph(3))
    assert not ok and detail == f"edges must hold integers, got {entry!r}"
