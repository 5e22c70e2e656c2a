"""Parsers and ``verify`` are total: on any text or JSON they return a value
or raise ``ValueError``/``BlockerlabError``, never anything else."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockerlab.errors import BlockerlabError
from blockerlab.graph import complete_graph, cycle_graph
from blockerlab.graphio import (
    MAX_VERTICES, format_graph, parse_graph, parse_mss_instance, parse_sat_instance
)
from blockerlab.report import digest_bytes, load_report, verify_report

PARSERS = (parse_graph, parse_sat_instance, parse_mss_instance)

# Tokens close to the formats, so the fuzzer gets past the headers.
TOKENS = st.one_of(
    st.sampled_from(["p", "wp2sat", "#", "-1", "0", "1", "2", "3", "x", "1e3", "1_0", "٣", "+4"]),
    st.integers(-3, 12).map(str),
    st.integers(0, 10**30).map(str),
)
LINES = st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=8).map("\n".join)
TEXT = st.one_of(st.text(), LINES)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
SMALL = st.one_of(st.integers(-2, 6), st.none(), st.text(max_size=3), st.lists(st.integers(-1, 6), max_size=4))
WITNESS = st.one_of(
    JSON,
    st.fixed_dictionaries(
        {},
        optional={
            "vertices": st.lists(st.integers(-1, 6), max_size=4),
            "edges": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=4),
            "colouring": st.lists(st.integers(-1, 6), max_size=6),
        },
    ),
)
# Report-shaped objects reach the verifiers behind the dispatch.
REPORTS = st.fixed_dictionaries(
    {"subcommand": st.sampled_from(["blocker", "oracle", "param", "mono", "cotree"])},
    optional={
        "operation": st.sampled_from(["contract", "delete-vertices", "delete-edges", "shrink"]),
        "parameter": st.sampled_from(["alpha", "omega", "chi", "beta"]),
        "kind": st.sampled_from(["alpha", "omega", "chi", "mu", "tau", "rho"]),
        "mode": st.sampled_from(["fixed-h", "deficiency", "other"]),
        "answer": st.sampled_from(["yes", "no", "maybe"]),
        "k": SMALL,
        "d": SMALL,
        "h": SMALL,
        "chi": SMALL,
        "value": SMALL,
        "value_before": SMALL,
        "value_after": SMALL,
        "min_mono_edges": SMALL,
        "colouring": st.lists(st.integers(-1, 6), max_size=6),
        "deleted_edges": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=3),
        "witness": WITNESS,
        "input_digest": st.one_of(st.text(max_size=5), JSON),
    },
)


def _total(fn, *args):
    try:
        return fn(*args)
    except (ValueError, BlockerlabError):
        return None


@pytest.mark.parametrize("parse", PARSERS)
@given(text=TEXT)
@settings(max_examples=150, deadline=None)
def test_parsers_are_total(parse, text):
    _total(parse, text)


@given(text=TEXT)
@settings(max_examples=150, deadline=None)
def test_load_report_is_total(text):
    report = _total(load_report, text)
    if report is not None:
        assert isinstance(report, dict)


@given(report=st.one_of(JSON, REPORTS), matching=st.booleans())
@settings(max_examples=300, deadline=None)
def test_verify_report_is_total(report, matching):
    for g in (cycle_graph(5), complete_graph(4)):
        data = format_graph(g).encode()
        if matching and isinstance(report, dict):
            # The digest of the graph's file, so the verifiers behind it run.
            report = {**report, "input_digest": digest_bytes(data)}
        ok, detail = verify_report(report, g, data)
        assert isinstance(ok, bool) and isinstance(detail, str)
    # The same object after a JSON round trip, as the CLI reads it.
    _total(lambda: verify_report(load_report(json.dumps(report)), g, data))


def test_parser_edge_cases_found_by_fuzzing():
    # A header may not ask for more vertices than the graph can hold.
    with pytest.raises(BlockerlabError):
        parse_graph(f"{MAX_VERTICES + 1} 0\n")
    assert parse_graph("3 0\n").n == 3
    # json raises RecursionError on deep nesting; a report must not.
    with pytest.raises(ValueError):
        load_report("[" * 100_000)
    ok, detail = verify_report([1, 2], cycle_graph(5), format_graph(cycle_graph(5)).encode())
    assert not ok and "JSON object" in detail
