import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockerlab.errors import GraphFormatError
from blockerlab.graph import Graph
from blockerlab.graphio import (
    format_graph,
    parse_graph,
    parse_mss_instance,
    parse_sat_instance,
)


def test_parse_basic():
    g = parse_graph("# a path\n3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]


def test_parse_handles_comments_and_blanks():
    g = parse_graph("\n# header comment\n2 1\n\n# middle\n0 1\n\n")
    assert g.edges() == [(0, 1)]


@given(n=st.integers(0, 9), picks=st.integers(0, 2**36))
@settings(max_examples=100, deadline=None)
def test_graph_roundtrip(n, picks):
    slots = list(itertools.combinations(range(n), 2))
    g = Graph(n, [slots[i] for i in range(len(slots)) if picks >> i & 1])
    assert parse_graph(format_graph(g)) == g


# Each rejected file, and a fragment its message must contain: the bad line's
# text, the header, the out-of-range edge, the self-loop vertex or the
# duplicate pair.
MALFORMED = [
    ("", "empty graph file"),
    ("nonsense", "header 'nonsense'"),
    ("2\n", "header '2'"),
    ("2 1\n", "promises 1 edges, file has 0"),  # missing edge line
    ("2 1\n0 0\n", "self-loop at vertex 0"),
    ("2 1\n0 5\n", "edge 0-5 out of range for n=2"),
    ("2 2\n0 1\n0 1\n", "duplicate edge 0 1"),
    ("2 1\n0 1\n1 0\n", "promises 1 edges, file has 2"),  # too many lines
    ("2 1\n0 x\n", "edge line '0 x'"),
    ("3 1\n0 1 2\n", "edge line '0 1 2'"),
    ("3 2\n0 1\n2 1\n1 0\n", "promises 2 edges, file has 3"),
    ("3 3\n0 1\n2 1\n1 0\n", "duplicate edge 1 0"),
]


@pytest.mark.parametrize("text, fragment", MALFORMED, ids=[text for text, _ in MALFORMED])
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_names_a_bad_line_after_10000_good_ones():
    body = "".join(f"{i} {i + 1}\n" for i in range(10_000))
    with pytest.raises(GraphFormatError) as err:
        parse_graph(f"10001 10001\n{body}7 x7\n")
    assert "'7 x7'" in str(err.value)


def test_parse_sat():
    inst = parse_sat_instance("p wp2sat 3 2 1\n1 2\n2 3\n")
    assert inst.variable_count == 3
    assert inst.clauses == ((0, 1), (1, 2))
    assert inst.k == 1


def test_parse_sat_deduplicates():
    inst = parse_sat_instance("p wp2sat 2 2 1\n1 2\n2 1\n")
    assert inst.clauses == ((0, 1),)


SAT_REJECTED = [
    ("p wp2sat 2 1 1\n1 1\n", "clauses must use two distinct variables"),
    ("p wp2sat 2 0 1\n", "need at least one clause"),
    ("p wp2sat 2 1 1\n1 9\n", "clause variable out of range"),
    ("q wp2sat 2 1 1\n1 2\n", "got 'q wp2sat 2 1 1'"),
    ("p wp2sat 2 x 1\n1 2\n", "header '2 x 1'"),
    ("p wp2sat 2 1 1\n1 2.0\n", "clause line '1 2.0'"),
]


@pytest.mark.parametrize("text, fragment", SAT_REJECTED, ids=[text for text, _ in SAT_REJECTED])
def test_parse_sat_rejects(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_sat_instance(text)
    assert fragment in str(err.value)


def test_parse_mss():
    inst = parse_mss_instance("3 2 18\n1 2 3\n")
    assert (inst.ell, inst.a, inst.h, inst.J) == (3, (1, 2, 3), 2, 18)


MSS_REJECTED = [
    ("", "expected a header line and one tuple line"),
    ("3 2 18\n1 2\n", "expected 3 integers in tuple line '1 2'"),
    ("0 2 18\n\n", "expected a header line and one tuple line"),
    ("2 2 9\n1 0\n", "all entries must be positive"),
    ("3 2\n1 2 3\n", "header '3 2'"),
]


@pytest.mark.parametrize("text, fragment", MSS_REJECTED, ids=[text for text, _ in MSS_REJECTED])
def test_parse_mss_rejects(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_mss_instance(text)
    assert fragment in str(err.value)
