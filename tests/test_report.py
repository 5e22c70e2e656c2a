import pytest

from blockerlab.graph import complete_graph, cycle_graph
from blockerlab.graphio import format_graph
from blockerlab.report import digest_bytes, verify_report


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
    ok, detail = verify_report(report, k4, format_graph(k4).encode())
    assert not ok and "digest" in detail


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


def test_param_report_value_must_match(k4):
    report = {
        "subcommand": "param",
        "kind": "alpha",
        "value": 2,
        "witness": {"vertices": [0, 1]},
    }
    ok, _ = verify_report(report, k4)
    assert not ok  # the "independent set" is an edge, and alpha(K4) is 1


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
